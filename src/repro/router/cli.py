"""A ``birdc``-style command-line interface for the router.

The experiment toolkit (Table 1: "Access BIRD CLI") shells out to this,
and tests use it to assert on human-readable state.
"""

from __future__ import annotations

from repro.netsim.addr import IPv4Prefix
from repro.router.engine import Router


def birdc(router: Router, command: str) -> str:
    """Execute one CLI command and return its output text."""
    words = command.strip().split()
    if not words:
        return "syntax error"
    if words[:2] == ["show", "protocols"]:
        return _show_protocols(router)
    if words[:2] == ["show", "route"]:
        return _show_route(router, words[2:])
    if words[:2] == ["show", "memory"]:
        return _show_memory(router)
    if words[:2] == ["show", "status"]:
        return _show_status(router)
    return f"unknown command: {command}"


def _show_status(router: Router) -> str:
    return (
        f"BIRD-like router {router.name}\n"
        f"Router ID is {router.config.router_id}\n"
        f"Local AS is {router.config.asn}\n"
        f"Reconfigurations: {router.reconfigurations}\n"
        "Daemon is up and running"
    )


def _show_protocols(router: Router) -> str:
    lines = ["Name       Proto    State      Info"]
    for name, sync in router.kernel_syncs.items():
        lines.append(
            f"{name:<10} kernel   up         "
            f"installed {sync.installed}, removed {sync.removed}"
        )
    for name, neighbor in router.speaker.neighbors.items():
        state = (
            neighbor.session.state.value if neighbor.session else "down"
        )
        info = f"AS{neighbor.config.peer_asn or '?'}"
        if neighbor.config.addpath and neighbor.session is not None and (
            neighbor.session.addpath_active
        ):
            info += " add-path"
        lines.append(f"{name:<10} bgp      {state:<10} {info}")
    return "\n".join(lines)


def _show_route(router: Router, args: list[str]) -> str:
    show_all = bool(args) and args[0] == "all"
    if show_all:
        args = args[1:]
    target = None
    if args and args[0] == "for":
        target = IPv4Prefix.parse(args[1])
    lines = []
    prefixes = (
        [target] if target is not None
        else sorted(router.speaker.loc_rib.prefixes())
    )
    for prefix in prefixes:
        entries = router.speaker.loc_rib.candidates(prefix)
        best = router.speaker.loc_rib.best(prefix)
        if not entries:
            continue
        shown = entries if show_all else ([best] if best else [])
        for entry in shown:
            if entry is None:
                continue
            star = "*" if best is not None and entry.route == best.route else " "
            route = entry.route
            lines.append(
                f"{route.prefix} {star} via {route.next_hop} "
                f"[{entry.peer}] path: {route.as_path or '(local)'}"
            )
    if not lines:
        return "Network not found"
    return "\n".join(lines)


def _show_memory(router: Router) -> str:
    loc_rib = router.speaker.loc_rib
    lines = [
        "BIRD-like table usage",
        f"Routing tables: {len(loc_rib)} routes for "
        f"{loc_rib.prefix_count} prefixes",
    ]
    for name, sync in router.kernel_syncs.items():
        table = sync.stack.tables.get(sync.config.table)
        count = len(table) if table is not None else 0
        lines.append(f"Kernel table {sync.config.table} ({name}): {count} routes")
    return "\n".join(lines)
