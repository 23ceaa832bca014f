"""The transactional network controller (§5).

Netlink has no notion of intent: only query/add/remove. The controller
reconciles a declarative :class:`NetworkIntent` against live kernel state:

* removes configuration incompatible with the intent,
* keeps compatible configuration (so BGP sessions and traffic are not
  disturbed — resetting everything would reset tunnels and sessions),
* adds what is missing,
* enforces **primary-address ordering**: Linux's primary address is simply
  the first one added and sources ICMP errors (traceroute attribution!),
  so when the order is wrong the controller removes and re-adds the
  interface's addresses in the intended order,
* is **transactional**: if any operation fails, every applied operation
  is rolled back and the kernel is left exactly as found.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.netsim.addr import IPv4Address
from repro.netsim.netlink import Netlink, NetlinkError, RouteRecord, RuleRecord


class TransactionError(RuntimeError):
    """Raised when an apply failed and was rolled back."""


@dataclass
class NetworkIntent:
    """Desired network configuration for one server.

    ``addresses`` maps interface → ordered address list (index 0 is the
    intended primary); ``routes`` and ``rules`` are the full desired sets.
    """

    addresses: dict[str, list[tuple[IPv4Address, int]]] = field(
        default_factory=dict
    )
    routes: list[RouteRecord] = field(default_factory=list)
    rules: list[RuleRecord] = field(default_factory=list)


@dataclass
class AppliedOp:
    """One applied operation and its inverse (for rollback)."""

    description: str
    undo: Callable[[], None]


@dataclass
class ApplyReport:
    added: int = 0
    removed: int = 0
    kept: int = 0
    reordered_interfaces: list[str] = field(default_factory=list)

    @property
    def changes(self) -> int:
        return self.added + self.removed


class NetworkController:
    """Reconciles intent against one server's kernel state."""

    def __init__(self, netlink: Netlink) -> None:
        self.netlink = netlink
        self.applies = 0
        self.rollbacks = 0

    def apply(self, intent: NetworkIntent,
              fail_on: Optional[Callable[[str], bool]] = None) -> ApplyReport:
        """Apply the intent with transactional semantics.

        ``fail_on`` is a test hook: a predicate over operation
        descriptions that forces a mid-transaction failure.
        """
        self.applies += 1
        report = ApplyReport()
        applied: list[AppliedOp] = []
        try:
            self._apply_addresses(intent, report, applied, fail_on)
            self._apply_routes(intent, report, applied, fail_on)
            self._apply_rules(intent, report, applied, fail_on)
        except Exception as exc:
            self.rollbacks += 1
            for op in reversed(applied):
                op.undo()
            raise TransactionError(
                f"apply failed ({exc}); rolled back {len(applied)} operations"
            ) from exc
        return report

    # -- primitives -------------------------------------------------------

    def _do(
        self,
        applied: list[AppliedOp],
        description: str,
        forward: Callable[[], None],
        undo: Callable[[], None],
        fail_on: Optional[Callable[[str], bool]],
    ) -> None:
        if fail_on is not None and fail_on(description):
            raise NetlinkError(f"injected failure at: {description}")
        forward()
        applied.append(AppliedOp(description=description, undo=undo))

    # -- addresses ----------------------------------------------------------

    def _apply_addresses(
        self,
        intent: NetworkIntent,
        report: ApplyReport,
        applied: list[AppliedOp],
        fail_on,
    ) -> None:
        for iface, desired in intent.addresses.items():
            current = self.netlink.dump_addresses(iface)
            current_addrs = [record.address for record in current]
            desired_addrs = [address for address, _length in desired]
            # Remove addresses not in the intent.
            for record in current:
                if record.address not in desired_addrs:
                    self._do(
                        applied,
                        f"del addr {record.address} on {iface}",
                        lambda r=record: self.netlink.del_address(
                            iface, r.address
                        ),
                        lambda r=record: self.netlink.add_address(
                            iface, r.address, r.length
                        ),
                        fail_on,
                    )
                    report.removed += 1
                else:
                    report.kept += 1
            remaining = [a for a in current_addrs if a in desired_addrs]
            # If the surviving order disagrees with the intent's order (in
            # particular the primary), rebuild the interface's addresses.
            if remaining != desired_addrs[:len(remaining)] or (
                remaining and remaining[0] != desired_addrs[0]
            ):
                report.reordered_interfaces.append(iface)
                for address in remaining:
                    length = next(
                        length for a, length in desired if a == address
                    )
                    self._do(
                        applied,
                        f"del addr {address} on {iface} (reorder)",
                        lambda a=address: self.netlink.del_address(iface, a),
                        lambda a=address, n=length: self.netlink.add_address(
                            iface, a, n
                        ),
                        fail_on,
                    )
                remaining = []
            # Add missing addresses in intent order.
            for address, length in desired:
                if address in remaining:
                    continue
                self._do(
                    applied,
                    f"add addr {address}/{length} on {iface}",
                    lambda a=address, n=length: self.netlink.add_address(
                        iface, a, n
                    ),
                    lambda a=address: self.netlink.del_address(iface, a),
                    fail_on,
                )
                report.added += 1

    # -- routes ---------------------------------------------------------------

    def _apply_routes(
        self,
        intent: NetworkIntent,
        report: ApplyReport,
        applied: list[AppliedOp],
        fail_on,
    ) -> None:
        desired_by_table: dict[int, dict] = {}
        for record in intent.routes:
            desired_by_table.setdefault(record.table, {})[
                record.prefix
            ] = record
        tables = set(self.netlink.list_tables()) | set(desired_by_table)
        for table in sorted(tables):
            desired = desired_by_table.get(table, {})
            current = {
                record.prefix: record
                for record in self.netlink.dump_routes(table)
            }
            for key, record in current.items():
                want = desired.get(key)
                if want == record:
                    report.kept += 1
                    continue
                if table == 254 and record.next_hop is None and (
                    want is None
                ):
                    # Connected routes in the main table are created by the
                    # kernel when addresses are assigned — never ours to
                    # delete.
                    report.kept += 1
                    continue
                self._do(
                    applied,
                    f"del route {record.prefix} table {table}",
                    lambda r=record: self.netlink.del_route(
                        r.table, r.prefix
                    ),
                    lambda r=record: self.netlink.add_route(r),
                    fail_on,
                )
                report.removed += 1
            for key, record in desired.items():
                existing = current.get(key)
                if existing == record:
                    continue
                self._do(
                    applied,
                    f"add route {record.prefix} table {table}",
                    lambda r=record: self.netlink.add_route(r),
                    lambda r=record: self.netlink.del_route(
                        r.table, r.prefix
                    ),
                    fail_on,
                )
                report.added += 1

    # -- rules ---------------------------------------------------------------

    def _apply_rules(
        self,
        intent: NetworkIntent,
        report: ApplyReport,
        applied: list[AppliedOp],
        fail_on,
    ) -> None:
        current = self.netlink.dump_rules()
        desired = list(intent.rules)
        for record in current:
            if record in desired:
                report.kept += 1
                continue
            if record.priority == 32766 and record.table == 254:
                report.kept += 1
                continue  # never touch the default main-table rule
            self._do(
                applied,
                f"del rule prio {record.priority} table {record.table}",
                lambda r=record: self.netlink.del_rule(r),
                lambda r=record: self.netlink.add_rule(r),
                fail_on,
            )
            report.removed += 1
        for record in desired:
            if record in current:
                continue
            self._do(
                applied,
                f"add rule prio {record.priority} table {record.table}",
                lambda r=record: self.netlink.add_rule(r),
                lambda r=record: self.netlink.del_rule(r),
                fail_on,
            )
            report.added += 1
