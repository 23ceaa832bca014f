"""The ``peering`` command-line interface over :class:`ExperimentClient`.

Accepts the command strings experimenters type (mirroring the real
toolkit's ``peering <component> <action> …``) and returns printable
output. Exercised end-to-end by the Table 1 benchmark.

Exit codes: every command reports a status through
:meth:`ToolkitCli.run_with_status` (and leaves it on
:attr:`ToolkitCli.exit_code` after a plain :meth:`ToolkitCli.run`).
``peering verify``, ``peering chaos``, and ``peering intent`` share one
convention:

====  =====================================================
code  meaning
====  =====================================================
0     clean — checks passed / intent committed
1     breach — an invariant, verification, chaos scenario,
      or intent transaction failed (plan not clean, apply
      reverted or rejected, revert left residue)
2     usage or operational error
====  =====================================================
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.bgp.attributes import Community
from repro.netsim.addr import IPv4Prefix
from repro.toolkit.client import ExperimentClient


class ToolkitCli:
    """String-command front end (``peering …``)."""

    def __init__(
        self,
        client: ExperimentClient,
        neighbor_speakers: Optional[Mapping[str, object]] = None,
        neighbor_pops: Optional[Mapping[str, str]] = None,
    ) -> None:
        """``neighbor_speakers`` maps an upstream neighbor's name to the
        speaker of that external AS, and ``neighbor_pops`` the name to its
        PoP: ``peering intent`` checks exports at those neighbors."""
        self.client = client
        self.neighbor_speakers = dict(neighbor_speakers or {})
        self.neighbor_pops = dict(neighbor_pops or {})
        self.exit_code = 0
        # ``peering intent``: the pending ChangeSet under construction
        # and the transactional controller (created on first use).
        self._intent_ops: list = []
        self._intent_controller = None
        self._intent_plan = None
        # ``peering fleet``: live controllers keyed by compiled directory
        # (``up`` in one command, ``status``/``down`` in later ones).
        self._fleet_controllers: dict = {}

    def run(self, command: str) -> str:
        output, self.exit_code = self.run_with_status(command)
        return output

    def run_with_status(self, command: str) -> tuple[str, int]:
        """Run one command; returns ``(output, exit_code)``.

        The exit-code convention (shared by ``verify``, ``chaos``, and
        ``intent``) is documented in the module docstring and in
        ``--help``: 0 clean, 1 breach, 2 usage error.
        """
        self.exit_code = 0
        words = command.strip().split()
        if words and words[0] == "peering":
            words = words[1:]
        if not words:
            return self._usage(), 2
        component, *rest = words
        handler = getattr(self, f"_cmd_{component}", None)
        if handler is None:
            return self._usage(), 2
        try:
            output = handler(rest)
        except (KeyError, ValueError, RuntimeError) as exc:
            return f"error: {exc}", 2
        if output == self._usage() or output.startswith("error:"):
            return output, 2
        return output, self.exit_code

    @staticmethod
    def _usage() -> str:
        return (
            "usage: peering openvpn up|down|status [pop]\n"
            "       peering bgp start|stop|status [pop]\n"
            "       peering bird <pop> <command...>\n"
            "       peering prefix announce <prefix> [-m pop] [-c asn:val]\n"
            "                               [-p prepend] [-x poison-asn]\n"
            "       peering prefix withdraw <prefix> [-m pop]\n"
            "       peering telemetry summary\n"
            "       peering telemetry metrics [prom|json]\n"
            "       peering telemetry peers\n"
            "       peering telemetry rib <peer>\n"
            "       peering telemetry events [n]\n"
            "       peering health [pop]\n"
            "       peering chaos list\n"
            "       peering chaos <scenario>|all [--seed n]\n"
            "       peering verify invariants [name...]\n"
            "       peering verify codec [--frames n] [--seed n]\n"
            "       peering verify differential [--updates n]\n"
            "                                   [--workload churn|fulltable]\n"
            "                                   [--prefixes n]\n"
            "       peering verify all\n"
            "       peering intent op announce <prefix> [-m pop]\n"
            "                      [-c asn:val] [-p prepend] [-x poison]\n"
            "       peering intent op withdraw <prefix> [-m pop]\n"
            "       peering intent op connect|disconnect <pop>\n"
            "       peering intent show|clear\n"
            "       peering intent plan\n"
            "       peering intent diff\n"
            "       peering intent apply [--force]\n"
            "       peering intent revert <intent-id>\n"
            "       peering intent history\n"
            "       peering fleet compile --dir <path> [--pops n]\n"
            "                             [--port-base n]\n"
            "       peering fleet up|status|down --dir <path>\n"
            "       peering fleet run-pop <pop-artifact.json>\n"
            "       peering fleet differential [--pops n] [--updates n]\n"
            "                                  [--seed n] [--port-base n]\n"
            "       peering fleet crash [--seed n] [--port-base n]\n"
            "\n"
            "exit codes (verify, chaos, and intent share one convention):\n"
            "  0  clean   checks passed / intent committed\n"
            "  1  breach  invariant violated, verification or scenario\n"
            "             failed, or intent not committed cleanly\n"
            "  2  usage or operational error\n"
            "\n"
            "peering health exits with the worst PoP state:\n"
            "  0 healthy, 1 degraded, 2 critical"
        )

    # -- openvpn -----------------------------------------------------------

    def _cmd_openvpn(self, args: list[str]) -> str:
        if not args:
            return self._usage()
        action = args[0]
        if action == "up":
            view = self.client.openvpn_up(args[1])
            return f"tunnel to {view.pop} up ({view.connection.tunnel.client_ip})"
        if action == "down":
            self.client.openvpn_down(args[1])
            return f"tunnel to {args[1]} down"
        if action == "status":
            lines = []
            for pop, status in sorted(self.client.openvpn_status().items()):
                state = "up" if status["up"] else "down"
                lines.append(f"{pop}: {state} {status['client_ip']}")
            return "\n".join(lines) or "no tunnels"
        return self._usage()

    # -- bgp / bird ----------------------------------------------------------

    def _cmd_bgp(self, args: list[str]) -> str:
        if not args:
            return self._usage()
        action = args[0]
        if action == "start":
            session = self.client.bird_start(args[1])
            return f"bgp to {args[1]}: {session.state.value}"
        if action == "stop":
            self.client.bird_stop(args[1])
            return f"bgp to {args[1]}: stopped"
        if action == "status":
            lines = [
                f"{pop}: {state}"
                for pop, state in sorted(self.client.bird_status().items())
            ]
            return "\n".join(lines) or "no sessions"
        if action == "refresh":
            self.client.bird_refresh(args[1])
            return f"route refresh sent to {args[1]}"
        return self._usage()

    def _cmd_bird(self, args: list[str]) -> str:
        if len(args) < 2:
            return self._usage()
        return self.client.bird_cli(args[0], " ".join(args[1:]))

    # -- prefix --------------------------------------------------------------

    def _cmd_prefix(self, args: list[str]) -> str:
        if not args:
            return self._usage()
        action, *rest = args
        if action == "announce":
            return self._announce(rest)
        if action == "withdraw":
            return self._withdraw(rest)
        return self._usage()

    def _announce(self, args: list[str]) -> str:
        prefix, options = self._parse_options(args)
        if prefix is None:
            return "error: missing prefix"
        sent = self.client.announce(
            prefix,
            pops=options["pops"] or None,
            communities=options["communities"],
            prepend=options["prepend"],
            poison=options["poisons"],
        )
        targets = ", ".join(options["pops"]) if options["pops"] else "all PoPs"
        return f"announced {prefix} to {targets} ({len(sent)} update(s))"

    def _withdraw(self, args: list[str]) -> str:
        prefix, options = self._parse_options(args)
        if prefix is None:
            return "error: missing prefix"
        self.client.withdraw(prefix, pops=options["pops"] or None)
        targets = ", ".join(options["pops"]) if options["pops"] else "all PoPs"
        return f"withdrew {prefix} from {targets}"

    # -- telemetry -----------------------------------------------------------

    def _cmd_telemetry(self, args: list[str]) -> str:
        hub = getattr(self.client.platform, "telemetry", None)
        if hub is None:
            return "telemetry disabled (platform built without a hub)"
        action = args[0] if args else "summary"
        if action == "summary":
            parts = [f"{key}={value}"
                     for key, value in sorted(hub.station.summary().items())]
            parts.append(f"trace_events={len(hub.tracer)}")
            parts.append(f"trace_dropped={hub.tracer.dropped}")
            parts.append(f"metric_families={len(hub.registry.families())}")
            return "\n".join(parts)
        if action == "metrics":
            fmt = args[1] if len(args) > 1 else "prom"
            if fmt == "json":
                return hub.render_json()
            if fmt == "prom":
                return hub.render_prometheus()
            return f"error: unknown metrics format {fmt!r}"
        if action == "peers":
            lines = []
            for peer in hub.station.peer_names():
                record = hub.station.peers[peer]
                lines.append(
                    f"{peer}: {record.state} ups={record.ups} "
                    f"downs={record.downs} "
                    f"routes={hub.station.rib_in_size(peer)}"
                )
            return "\n".join(lines) or "no peers observed"
        if action == "rib":
            if len(args) < 2:
                return "error: usage: peering telemetry rib <peer>"
            routes = hub.station.rib_in(args[1])
            if not routes:
                return f"no routes mirrored for {args[1]}"
            return "\n".join(str(route) for route in routes)
        if action == "events":
            count = int(args[1]) if len(args) > 1 else 20
            events = hub.tracer.tail(count)
            if not events:
                return "no trace events"
            return "\n".join(event.format() for event in events)
        return self._usage()

    # -- health --------------------------------------------------------------

    def _cmd_health(self, args: list[str]) -> str:
        """Per-PoP overload health (DESIGN.md §6i).

        One block per PoP: the watchdog's verdict and evidence, then a
        line per ingress source (queue depth against capacity, delivery
        and shed accounting, breaker state).  The exit code is the
        worst state observed — 0 healthy, 1 degraded, 2 critical — so
        ``peering health`` drops straight into scripts and pre-flight
        checks.  PoPs without the overload layer report as such and do
        not affect the exit code.
        """
        from repro.overload.watchdog import HEALTH_LEVEL

        pops = dict(self.client.platform.pops)
        if args:
            name = args[0]
            if name not in pops:
                return f"error: unknown pop {name!r}"
            pops = {name: pops[name]}
        lines: list[str] = []
        worst = 0
        for name in sorted(pops):
            pop = pops[name]
            watchdog = getattr(pop, "watchdog", None)
            governor = getattr(pop, "overload", None)
            if watchdog is None or governor is None:
                lines.append(f"{name}: overload layer not enabled")
                continue
            snap = watchdog.snapshot()
            worst = max(worst, HEALTH_LEVEL[snap["state"]])
            lines.append(
                f"{name}: {snap['state'].upper()} "
                f"(transitions {snap['transitions']})"
            )
            lines.append(f"  {snap['detail']}")
            for peer, entry in sorted(governor.snapshot().items()):
                parts = []
                if "depth" in entry:
                    parts.append(
                        f"queue {entry['announce_depth']}"
                        f"/{entry['capacity']}"
                    )
                    parts.append(f"delivered {entry['delivered']}")
                    parts.append(f"shed {entry['shed']}")
                    parts.append(f"rejected {entry['rejected']}")
                if "breaker" in entry:
                    parts.append(
                        f"breaker {entry['breaker']} "
                        f"(trips {entry['trips']})"
                    )
                lines.append(f"  {peer}: " + ", ".join(parts))
        self.exit_code = worst
        return "\n".join(lines) or "no PoPs"

    # -- chaos ---------------------------------------------------------------

    def _cmd_chaos(self, args: list[str]) -> str:
        """Run a named chaos scenario against a self-contained world.

        The drill builds its own small deployment (fresh simulator, two
        PoPs, resilient transits, two experiments) so it cannot disturb
        the session's live platform; it reports the scenario verdicts.
        """
        from repro.chaos import ChaosRunner, build_chaos_world

        if not args:
            return self._usage()
        seed = 0
        rest = []
        index = 0
        while index < len(args):
            if args[index] == "--seed":
                index += 1
                seed = int(args[index])
            else:
                rest.append(args[index])
            index += 1
        if rest and rest[0] == "list":
            return "\n".join(ChaosRunner.SCENARIOS)
        world = build_chaos_world(seed=seed)
        runner = ChaosRunner(world)
        if rest and rest[0] == "all":
            results = runner.run_all()
        else:
            results = [runner.run(name) for name in rest]
        if any(not result.ok for result in results):
            self.exit_code = 1
        return "\n".join(result.format() for result in results)

    # -- fleet ---------------------------------------------------------------

    def _cmd_fleet(self, args: list[str]) -> str:
        """Compile and operate a PoP fleet (DESIGN.md §6k).

        ``compile`` turns the demo WorldSpec into per-PoP artifacts;
        ``up``/``status``/``down`` drive them as one OS process per PoP
        over loopback TCP; ``differential`` runs the in-process vs
        real-fleet byte-identity proof; ``crash`` the fleet-pop-crash
        chaos scenario.  Exit 1 when a differential or crash run fails,
        2 on usage errors — the shared convention.
        """
        if not args:
            return self._usage()
        action, *rest = args
        options = self._parse_fleet_options(rest)
        if action == "compile":
            return self._fleet_compile(options)
        if action in ("up", "status", "down"):
            return self._fleet_lifecycle(action, options)
        if action == "run-pop":
            from repro.fleet import runpop

            if len(options["rest"]) != 1:
                return "error: usage: peering fleet run-pop <artifact>"
            status = runpop.main(options["rest"])
            self.exit_code = status
            return f"pop exited with status {status}"
        if action == "differential":
            from repro.fleet.differential import run_fleet_differential

            report = run_fleet_differential(
                pops=options["pops"], updates=options["updates"],
                seed=options["seed"], port_base=options["port_base"],
            )
            if not report.ok:
                self.exit_code = 1
            return report.format()
        if action == "crash":
            from repro.fleet.crash import run_fleet_pop_crash

            result = run_fleet_pop_crash(
                seed=options["seed"], port_base=options["port_base"],
            )
            if not result.ok:
                self.exit_code = 1
            return result.format()
        return self._usage()

    def _fleet_compile(self, options: dict) -> str:
        from repro.fleet import compile_world, demo_world_spec

        if options["dir"] is None:
            return "error: peering fleet compile requires --dir"
        spec = demo_world_spec(
            pops=options["pops"], port_base=options["port_base"]
        )
        fleet = compile_world(spec, options["dir"])
        lines = [f"compiled world {spec.name} (digest {fleet.digest}) "
                 f"into {fleet.directory}"]
        lines += [f"  {name}: {fleet.artifact_path(name)}"
                  for name in fleet.pop_names()]
        return "\n".join(lines)

    def _fleet_lifecycle(self, action: str, options: dict) -> str:
        from repro.fleet import FleetController, load_fleet
        from repro.fleet.controller import fleet_down, fleet_status

        if options["dir"] is None:
            return f"error: peering fleet {action} requires --dir"
        fleet = load_fleet(options["dir"])
        if action == "up":
            controller = FleetController(fleet)
            controller.up()
            self._fleet_controllers[str(fleet.directory)] = controller
            return "\n".join(
                f"{name}: up (pid {proc.pid})"
                for name, proc in sorted(controller.processes.items())
            )
        controller = self._fleet_controllers.get(str(fleet.directory))
        if action == "status":
            rows = (controller.status() if controller is not None
                    else fleet_status(fleet))
            lines = []
            for name, row in sorted(rows.items()):
                state = "running" if row["running"] else "down"
                line = f"{name}: {state} (pid {row['pid']})"
                summary = row.get("summary")
                if summary:
                    line += (f" routes={summary['routes']} upstreams="
                             + ",".join(
                                 f"{up}:{'up' if ok else 'down'}"
                                 for up, ok in
                                 sorted(summary["upstreams"].items())))
                lines.append(line)
            return "\n".join(lines)
        if controller is not None:
            controller.down()
            del self._fleet_controllers[str(fleet.directory)]
            return "\n".join(f"{name}: stopped"
                             for name in sorted(fleet.pop_names()))
        outcome = fleet_down(fleet)
        return "\n".join(f"{name}: {state}"
                         for name, state in sorted(outcome.items()))

    @staticmethod
    def _parse_fleet_options(args: list[str]) -> dict:
        options = {
            "pops": 3,
            "updates": 18,
            "seed": 0,
            "port_base": None,
            "dir": None,
            "rest": [],
        }
        index = 0
        while index < len(args):
            token = args[index]
            if token in ("--pops", "--updates", "--seed", "--port-base",
                         "--dir"):
                if index + 1 >= len(args):
                    raise ValueError(f"{token} requires a value")
                index += 1
                key = token.lstrip("-").replace("-", "_")
                options[key] = (args[index] if token == "--dir"
                                else int(args[index]))
            else:
                options["rest"].append(token)
            index += 1
        return options

    # -- intent --------------------------------------------------------------

    def _controller(self):
        if self._intent_controller is None:
            from repro.intent import IntentController

            self._intent_controller = IntentController(
                self.client.scheduler,
                self.client.platform,
                {self.client.name: self.client},
                neighbor_speakers=self.neighbor_speakers,
                neighbor_pops=self.neighbor_pops,
                telemetry=getattr(self.client.platform, "telemetry", None),
            )
        return self._intent_controller

    def _pending_changeset(self):
        from repro.intent import ChangeSet

        return ChangeSet(
            name=f"{self.client.name}-pending",
            ops=tuple(self._intent_ops),
        )

    def _cmd_intent(self, args: list[str]) -> str:
        """Transactional configuration changes (DESIGN.md §6h).

        ``op …`` accumulates a pending ChangeSet; ``plan`` dry-runs it
        in a forked child (per-neighbor export diffs plus the invariant
        catalog, live platform untouched); ``apply`` stages the last
        plan, re-verifies, and commits — or auto-reverts on breach.
        Exit code 1 on a not-clean plan, non-committed apply, or dirty
        revert.
        """
        if not args:
            return self._usage()
        action, *rest = args
        if action == "op":
            return self._intent_add_op(rest)
        if action == "show":
            return self._pending_changeset().describe()
        if action == "clear":
            count = len(self._intent_ops)
            self._intent_ops.clear()
            return f"cleared {count} pending op(s)"
        if action == "plan":
            plan = self._controller().plan(self._pending_changeset())
            self._intent_plan = plan
            if not plan.report.ok:
                self.exit_code = 1
            return f"{plan.intent_id}\n{plan.report.format()}"
        if action == "diff":
            report = self._controller().evaluator.evaluate(
                self._pending_changeset()
            )
            if not report.ok:
                self.exit_code = 1
            return report.format()
        if action == "apply":
            return self._intent_apply(rest)
        if action == "revert":
            if not rest:
                return "error: usage: peering intent revert <intent-id>"
            record = self._controller().revert(rest[0])
            if record.revert_clean is False:
                self.exit_code = 1
            return record.format()
        if action == "history":
            return self._controller().history_text()
        return self._usage()

    def _intent_add_op(self, args: list[str]) -> str:
        from repro.intent import (
            announce_op,
            connect_op,
            disconnect_op,
            withdraw_op,
        )

        if not args:
            return self._usage()
        kind, *rest = args
        if kind in ("connect", "disconnect"):
            if not rest:
                return f"error: usage: peering intent op {kind} <pop>"
            maker = connect_op if kind == "connect" else disconnect_op
            op = maker(self.client.name, rest[0])
        elif kind in ("announce", "withdraw"):
            prefix, options = self._parse_options(rest)
            if prefix is None:
                return "error: missing prefix"
            if kind == "withdraw":
                op = withdraw_op(
                    self.client.name, str(prefix), pops=options["pops"]
                )
            else:
                op = announce_op(
                    self.client.name,
                    str(prefix),
                    pops=options["pops"],
                    communities=tuple(
                        str(c) for c in options["communities"]
                    ),
                    prepend=options["prepend"],
                    poison=options["poisons"],
                )
        else:
            return self._usage()
        self._intent_ops.append(op)
        return (
            f"op {len(self._intent_ops)}: {op.describe()} "
            f"(digest {self._pending_changeset().digest()})"
        )

    def _intent_apply(self, args: list[str]) -> str:
        force = "--force" in args
        plan = self._intent_plan
        if plan is None:
            plan = self._controller().plan(self._pending_changeset())
            self._intent_plan = plan
        record = self._controller().apply(plan, force=force)
        self._intent_plan = None
        self._intent_ops.clear()
        if record.phase != "committed" or record.revert_clean is False:
            self.exit_code = 1
        return record.format()

    # -- verify --------------------------------------------------------------

    def _cmd_verify(self, args: list[str]) -> str:
        """Run the conformance checkers (DESIGN.md §6e).

        ``invariants`` evaluates the platform invariant catalog against
        the *live* platform this CLI is attached to; ``codec`` fuzzes
        the wire decoder (corpus replayed first); ``differential``
        replays a churn workload through every LPM-toggle combination;
        ``all`` runs everything with CLI-sized budgets.  Only
        ``invariants`` takes positional names; any other token is an
        unknown option.
        """
        action = args[0] if args else "invariants"
        rest, options = self._parse_verify_options(args[1:])
        if action == "invariants":
            return self._verify_invariants(rest)
        if rest:
            return f"error: unknown option {rest[0]}"
        if action == "codec":
            return self._verify_codec(options)
        if action == "differential":
            return self._verify_differential(options)
        if action == "all":
            return "\n".join((
                self._verify_invariants([]),
                self._verify_codec(options),
                self._verify_differential(options),
            ))
        return self._usage()

    def _verify_invariants(self, names: list[str]) -> str:
        from repro.conformance.invariants import (
            ConformanceContext,
            run_invariants,
        )

        context = ConformanceContext.from_platform(
            self.client.platform,
            clients={self.client.name: self.client},
        )
        reports = run_invariants(context, names=names or None)
        if any(not report.ok for report in reports.values()):
            self.exit_code = 1
        return "\n".join(report.format() for report in reports.values())

    def _verify_codec(self, options: dict) -> str:
        from repro.conformance.fuzzer import DecoderFuzzer

        fuzzer = DecoderFuzzer(seed=options["seed"])
        result = fuzzer.run(iterations=options["frames"])
        if not result.ok:
            self.exit_code = 1
        return result.format()

    def _verify_differential(self, options: dict) -> str:
        from repro.conformance.differential import DifferentialHarness

        prefixes = options["prefixes"]
        if prefixes is None:
            # The fulltable default keeps the CLI interactive: a DFZ-shaped
            # table at reduced scale (benchmarks run the real 900k).
            prefixes = 4000 if options["workload"] == "fulltable" else 5000
        harness = DifferentialHarness(
            update_count=options["updates"],
            seed=options["seed"] or 20260806,
            prefix_count=prefixes,
            workload=options["workload"],
        )
        result = harness.run()
        if not result.ok:
            self.exit_code = 1
        return result.format()

    @staticmethod
    def _parse_verify_options(args: list[str]):
        options = {
            "frames": 2000,
            "updates": 300,
            "seed": 0,
            "workload": "churn",
            "prefixes": None,
        }
        takes_value = ("--frames", "--updates", "--seed", "--prefixes",
                       "--workload")
        rest: list[str] = []
        index = 0
        while index < len(args):
            token = args[index]
            if token in takes_value and index + 1 >= len(args):
                raise ValueError(f"{token} requires a value")
            if token in ("--frames", "--updates", "--seed", "--prefixes"):
                index += 1
                options[token.lstrip("-")] = int(args[index])
            elif token == "--workload":
                index += 1
                options["workload"] = args[index]
            else:
                rest.append(token)
            index += 1
        return rest, options

    @staticmethod
    def _parse_options(args: list[str]):
        prefix: Optional[IPv4Prefix] = None
        options = {
            "pops": [],
            "communities": [],
            "prepend": 0,
            "poisons": [],
        }
        index = 0
        while index < len(args):
            token = args[index]
            if token == "-m":
                index += 1
                options["pops"].append(args[index])
            elif token == "-c":
                index += 1
                options["communities"].append(Community.parse(args[index]))
            elif token == "-p":
                index += 1
                options["prepend"] = int(args[index])
            elif token == "-x":
                index += 1
                options["poisons"].append(int(args[index]))
            else:
                prefix = IPv4Prefix.parse(token)
            index += 1
        return prefix, options
