"""The control-plane enforcement engine (§3.3, §4.7).

Sits between experiment BGP sessions and the router (the paper runs this
as Python inside ExaBGP). For every route an experiment announces it
checks, in order:

1. **prefix ownership** — the prefix must be covered by the experiment's
   allocation and no more specific than its announceable maximum (no
   hijacks; also prevents transiting non-experiment traffic),
2. **origin ASN** — the rightmost ASN must be one the experiment is
   authorized to use (the platform ASN for iBGP-originated routes),
3. **AS-path sanity** — bounded length; foreign ASNs in the path require
   the poisoning capability (within its limit) or the transit capability,
4. **attribute policing** — non-control communities, large communities,
   and unknown transitive attributes are stripped unless the matching
   capability is granted,
5. **rate limiting** — at most 144 updates/day per (prefix, PoP),
   counted in state shared across all vBGP instances.

If the engine itself is overloaded or errors, the caller (vBGP) treats the
announcement as denied — the platform **fails closed** rather than letting
an unchecked announcement reach the Internet.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.bgp.attributes import Route
from repro.netsim.addr import IPv4Address, IPv4Prefix, IPv6Prefix
from repro.security.capabilities import Capability, ExperimentProfile
from repro.security.state import EnforcerState
from repro.sim.scheduler import Scheduler
from repro.vbgp.communities import is_control

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry import TelemetryHub


class EnforcerOverloaded(RuntimeError):
    """Raised when the engine is overloaded; vBGP then fails closed."""


@dataclass(frozen=True)
class Violation:
    """A rejected (or, ``rejected=False``, stripped) announcement, for
    attribution (§3.1)."""

    experiment: str
    pop: str
    prefix: str
    reason: str
    time: float
    rejected: bool = True


@dataclass
class EnforcementOutcome:
    accepted: list[Route] = field(default_factory=list)
    violations: list[Violation] = field(default_factory=list)


class ControlPlaneEnforcer:
    """One enforcement engine instance (one per vBGP node, shared state)."""

    def __init__(
        self,
        scheduler: Scheduler,
        platform_asns: frozenset[int],
        state: Optional[EnforcerState] = None,
        telemetry: Optional["TelemetryHub"] = None,
    ) -> None:
        self.scheduler = scheduler
        self.platform_asns = platform_asns
        self.state = state if state is not None else EnforcerState()
        self.profiles: dict[str, ExperimentProfile] = {}
        self.violations: list[Violation] = []
        self.overloaded = False
        self.routes_checked = 0
        self.routes_rejected = 0
        self._m_accepts = None
        self._m_rejects = None
        self._m_strips = None
        if telemetry is not None:
            registry = telemetry.registry
            self._m_accepts = registry.counter(
                "security_control_accepts",
                "Announcements accepted by the control-plane enforcer",
                labels=("pop",),
            )
            self._m_rejects = registry.counter(
                "security_control_rejects",
                "Announcements rejected, by enforcement policy",
                labels=("pop", "policy"),
            )
            self._m_strips = registry.counter(
                "security_control_strips",
                "Attributes stripped for missing capabilities",
                labels=("pop", "attribute"),
            )

    def register_experiment(self, profile: ExperimentProfile) -> None:
        self.profiles[profile.name] = profile

    def deregister_experiment(self, name: str) -> None:
        self.profiles.pop(name, None)

    def reset_violations(self) -> int:
        """Clear the recorded violation log; returns how many were
        cleared.  Post-heal hygiene for the chaos scenarios — lifetime
        counters (``routes_rejected`` etc.) are deliberately kept."""
        cleared = len(self.violations)
        self.violations.clear()
        return cleared

    # -- the vBGP-facing API ----------------------------------------------

    def filter_routes(self, experiment: str, routes: list[Route],
                      pop: str) -> list[Route]:
        """Return the policy-compliant subset (possibly transformed)."""
        if self.overloaded:
            raise EnforcerOverloaded(f"enforcer at {pop} is overloaded")
        outcome = self.check_routes(experiment, routes, pop)
        self.violations.extend(outcome.violations)
        return outcome.accepted

    def check_routes(self, experiment: str, routes: list[Route],
                     pop: str) -> EnforcementOutcome:
        """Evaluate the policy, consuming update budget for accepts."""
        outcome = EnforcementOutcome()
        profile = self.profiles.get(experiment)
        now = self.scheduler.now
        allowed_asns = (
            profile.asns | self.platform_asns if profile is not None
            else frozenset()
        )
        for route in routes:
            self.routes_checked += 1
            if profile is None:
                self._reject(outcome, experiment, pop, route,
                             "unknown experiment", now,
                             policy="unknown-experiment")
                continue
            check = self._static_checks(profile, route, allowed_asns)
            if check is not None:
                policy, reason = check
                self._reject(outcome, experiment, pop, route, reason, now,
                             policy=policy)
                continue
            transformed = self._police_attributes(
                profile, route, outcome, experiment, pop, now,
            )
            if not self.state.record(experiment, route.prefix, pop, now):
                self._reject(outcome, experiment, pop, route,
                             "update rate limit exceeded", now,
                             policy="rate-limit")
                continue
            outcome.accepted.append(transformed)
            if self._m_accepts is not None:
                self._m_accepts.labels(pop).inc()
        return outcome

    def check_withdraw(self, experiment: str, prefix, pop: str) -> bool:
        """Withdrawals also count against the update budget (§4.7)."""
        return self.state.record(experiment, prefix, pop, self.scheduler.now)

    # -- checks -------------------------------------------------------------

    def _static_checks(
        self, profile: ExperimentProfile, route: Route,
        allowed_asns: frozenset[int],
    ) -> Optional[tuple[str, str]]:
        """Returns ``(policy, reason)`` on rejection, else ``None``.

        The policy tag is stable and coarse (it labels the per-policy
        reject counters); the reason stays free-form for attribution.
        """
        if isinstance(route.prefix, IPv6Prefix):
            reason = self._check_6to4(profile, route.prefix)
            if reason is not None:
                return "6to4", reason
        elif not profile.owns_prefix(route.prefix):
            return (
                "prefix-ownership",
                f"prefix {route.prefix} not allocated to experiment",
            )
        elif route.prefix.length > profile.max_announced_length:
            return (
                "prefix-length",
                f"prefix {route.prefix} more specific than "
                f"/{profile.max_announced_length}",
            )
        path = route.as_path
        if path.length > profile.max_as_path_length:
            return (
                "as-path-length",
                f"AS path longer than {profile.max_as_path_length}",
            )
        # Transit capability: the experiment may legitimately re-announce
        # routes originated (and carried) by other networks (§4.7).
        has_transit = profile.has(Capability.PREFIX_TRANSIT)
        origin = path.origin_as
        if origin is not None and origin not in allowed_asns and (
            not has_transit
        ):
            return "origin", f"unauthorized origin AS{origin}"
        foreign = {asn for asn in path.asns if asn not in allowed_asns}
        if foreign and not has_transit:
            if not profile.has(Capability.AS_PATH_POISONING, len(foreign)):
                return (
                    "poisoning",
                    f"{len(foreign)} foreign ASNs in path without "
                    "poisoning/transit capability",
                )
        return None

    _SIX_TO_FOUR = IPv6Prefix.parse("2002::/16")

    def _check_6to4(self, profile: ExperimentProfile,
                    prefix: IPv6Prefix) -> Optional[str]:
        """The 6to4 capability (§4.7): an experiment may announce the
        2002::/16-mapped image of IPv4 space it owns (RFC 3056 embeds the
        IPv4 address in bits 16..48 of the prefix)."""
        if not self._SIX_TO_FOUR.contains_prefix(prefix):
            return f"IPv6 prefix {prefix} is not experiment-announceable"
        if not profile.has(Capability.IPV6_6TO4):
            return "6to4 announcement without the ipv6-6to4 capability"
        v4_bits = min(prefix.length - 16, 32)
        if v4_bits < 24:
            return f"6to4 prefix {prefix} maps more than a /24 of IPv4"
        embedded = (prefix.network.value >> (128 - 48)) & 0xFFFFFFFF
        v4_prefix = IPv4Prefix.from_address(IPv4Address(embedded), v4_bits)
        if not profile.owns_prefix(v4_prefix):
            return (
                f"6to4 prefix {prefix} embeds unallocated IPv4 "
                f"{v4_prefix}"
            )
        return None

    def _police_attributes(
        self,
        profile: ExperimentProfile,
        route: Route,
        outcome: EnforcementOutcome,
        experiment: str,
        pop: str,
        now: float,
    ) -> Route:
        """Strip attributes the experiment is not entitled to send."""
        free_form = {c for c in route.communities if not is_control(c)}
        if free_form and not profile.has(
            Capability.BGP_COMMUNITIES, len(free_form)
        ):
            route = route.without_communities(*free_form)
            self._strip(outcome, experiment, pop, route, now,
                        "communities", "communities")
        if route.attributes.large_communities and not profile.has(
            Capability.LARGE_COMMUNITIES,
            len(route.attributes.large_communities),
        ):
            route = route.with_attributes(large_communities=frozenset())
            self._strip(outcome, experiment, pop, route, now,
                        "large-communities", "large communities")
        if route.attributes.unknown and not profile.has(
            Capability.TRANSITIVE_ATTRIBUTES
        ):
            route = route.without_unknown_attributes()
            self._strip(outcome, experiment, pop, route, now,
                        "transitive", "transitive attributes")
        return route

    def _reject(self, outcome: EnforcementOutcome, experiment: str, pop: str,
                route: Route, reason: str, now: float,
                policy: str = "other") -> None:
        self.routes_rejected += 1
        if self._m_rejects is not None:
            self._m_rejects.labels(pop, policy).inc()
        outcome.violations.append(Violation(
            experiment=experiment, pop=pop, prefix=str(route.prefix),
            reason=reason, time=now,
        ))

    def _strip(self, outcome: EnforcementOutcome, experiment: str, pop: str,
               route: Route, now: float, attribute: str, what: str) -> None:
        if self._m_strips is not None:
            self._m_strips.labels(pop, attribute).inc()
        outcome.violations.append(Violation(
            experiment=experiment, pop=pop, prefix=str(route.prefix),
            reason=f"{what} stripped (no capability)", time=now,
            rejected=False,
        ))
