"""Launch, monitor, federate, and stop a fleet of PoP processes.

The :class:`FleetController` is the driver-side half of DESIGN.md §6k's
runtime layer: it spawns one ``python -m repro.fleet.runpop`` OS process
per compiled artifact, speaks the newline-JSON control protocol to each
(:class:`ControlClient`), accepts every PoP's federation uplink into one
central :class:`~repro.telemetry.station.MonitoringStation` (peers named
``<pop>/<peer>``), and tears the processes down with a two-layer
reaper — a ``weakref.finalize`` per controller plus a module-level
live-process registry swept at ``atexit`` — so an aborted test can
never strand a PoP process.

State for the stateless CLI (``peering fleet up`` in one invocation,
``status``/``down`` in later ones) lives in ``state.json`` next to the
artifacts: the spec digest plus the per-PoP pids.
"""

from __future__ import annotations

import atexit
import json
import os
import signal
import socket
import subprocess
import sys
import time
import weakref
from pathlib import Path
from typing import Dict, Optional

from repro.bgp.transport import SocketChannel, SocketListener, SocketPoller
from repro.fleet.compiler import CompiledFleet
from repro.telemetry.station import (
    MonitoringStation,
    PeerDown,
    PeerUp,
    ResilienceEvent,
    RouteMonitoring,
)

__all__ = [
    "ControlClient",
    "FleetController",
    "fleet_down",
    "fleet_status",
    "live_fleet_process_count",
    "shutdown_all_fleets",
]

_LIVE_PROCESSES: "weakref.WeakSet[subprocess.Popen]" = weakref.WeakSet()

STATE_FILE = "state.json"
DEFAULT_TIMEOUT = 15.0


def live_fleet_process_count() -> int:
    """Fleet PoP processes spawned by this process and still alive."""
    return sum(1 for proc in _LIVE_PROCESSES if proc.poll() is None)


def shutdown_all_fleets() -> int:
    """Kill every live fleet PoP process (leak-guard / atexit sweep)."""
    killed = 0
    for proc in list(_LIVE_PROCESSES):
        if proc.poll() is None:
            proc.kill()
            killed += 1
        try:
            proc.wait(timeout=5)
        except Exception:
            pass
    return killed


atexit.register(shutdown_all_fleets)


def _reap(procs: Dict[str, subprocess.Popen]) -> None:
    for proc in procs.values():
        if proc.poll() is None:
            proc.kill()
            try:
                proc.wait(timeout=5)
            except Exception:
                pass


def _runpop_env() -> dict:
    """Child environment with ``repro``'s source root on PYTHONPATH."""
    env = dict(os.environ)
    import repro

    src = str(Path(repro.__file__).resolve().parent.parent)
    existing = env.get("PYTHONPATH")
    if existing:
        if src not in existing.split(os.pathsep):
            env["PYTHONPATH"] = src + os.pathsep + existing
    else:
        env["PYTHONPATH"] = src
    return env


class ControlClient:
    """Blocking newline-JSON RPC client for one PoP's control socket."""

    def __init__(self, port: int, timeout: float = DEFAULT_TIMEOUT) -> None:
        self.port = port
        self.timeout = timeout
        self._sock: Optional[socket.socket] = None
        self._file = None

    def connect(self, retry_for: float = DEFAULT_TIMEOUT) -> None:
        """Dial the control port, retrying until the process listens."""
        deadline = time.monotonic() + retry_for
        last_error: Optional[Exception] = None
        while time.monotonic() < deadline:
            try:
                sock = socket.create_connection(
                    ("127.0.0.1", self.port), timeout=self.timeout
                )
            except OSError as exc:
                last_error = exc
                time.sleep(0.05)
                continue
            sock.settimeout(self.timeout)
            self._sock = sock
            self._file = sock.makefile("rb")
            return
        raise TimeoutError(
            f"control port {self.port} never answered: {last_error}"
        )

    @property
    def connected(self) -> bool:
        return self._sock is not None

    def call(self, cmd: str, **kwargs) -> dict:
        if self._sock is None:
            raise RuntimeError("control client is not connected")
        request = {"cmd": cmd, **kwargs}
        self._sock.sendall(json.dumps(request).encode() + b"\n")
        line = self._file.readline()
        if not line:
            raise ConnectionError(
                f"control connection to port {self.port} closed"
            )
        response = json.loads(line)
        if not response.get("ok"):
            raise RuntimeError(
                f"control command {cmd!r} failed: "
                f"{response.get('error', 'unknown error')}"
            )
        return response

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None
        if self._sock is not None:
            self._sock.close()
            self._sock = None


class FleetController:
    """Drive one compiled fleet as real OS processes on loopback."""

    def __init__(self, fleet: CompiledFleet,
                 poller: Optional[SocketPoller] = None) -> None:
        self.fleet = fleet
        self.poller = poller if poller is not None else SocketPoller()
        self._own_poller = poller is None
        self.processes: Dict[str, subprocess.Popen] = {}
        self.clients: Dict[str, ControlClient] = {}
        self.station = MonitoringStation(
            name="fleet-central", mirror_ribs=False
        )
        self.federation_events = 0
        self._federation_listener: Optional[SocketListener] = None
        self._federation_channels: list[SocketChannel] = []
        self._finalizer = weakref.finalize(self, _reap, self.processes)

    # -- lifecycle ---------------------------------------------------------

    def start_federation(self) -> None:
        if self._federation_listener is not None:
            return
        self._federation_listener = SocketListener(
            self.poller,
            port=self.fleet.world["ports"]["federation"],
            on_accept=self._accept_federation,
        )

    def launch_pop(self, name: str) -> subprocess.Popen:
        if name not in self.fleet.artifacts:
            raise KeyError(f"unknown PoP {name!r}")
        existing = self.processes.get(name)
        if existing is not None and existing.poll() is None:
            raise RuntimeError(f"PoP {name!r} is already running")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.fleet.runpop",
             str(self.fleet.artifact_path(name))],
            env=_runpop_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        self.processes[name] = proc
        _LIVE_PROCESSES.add(proc)
        return proc

    def wait_ready(self, name: str,
                   timeout: float = DEFAULT_TIMEOUT) -> ControlClient:
        """Block until the PoP's control socket answers ``hello``."""
        old = self.clients.pop(name, None)
        if old is not None:
            old.close()
        client = ControlClient(
            self.fleet.world["ports"]["pops"][name]["control"],
        )
        client.connect(retry_for=timeout)
        hello = client.call("hello")
        if hello["digest"] != self.fleet.digest:
            client.close()
            raise RuntimeError(
                f"PoP {name!r} runs digest {hello['digest']}, "
                f"controller expects {self.fleet.digest}"
            )
        self.clients[name] = client
        return client

    def up(self, timeout: float = DEFAULT_TIMEOUT) -> None:
        """Boot the whole fleet and wait until every PoP answers."""
        self.start_federation()
        for name in self.fleet.pop_names():
            self.launch_pop(name)
        for name in self.fleet.pop_names():
            self.wait_ready(name, timeout=timeout)
        self.save_state()

    def status(self) -> Dict[str, dict]:
        out: Dict[str, dict] = {}
        for name in self.fleet.pop_names():
            proc = self.processes.get(name)
            row = {
                "pid": proc.pid if proc is not None else None,
                "running": proc is not None and proc.poll() is None,
            }
            client = self.clients.get(name)
            if row["running"] and client is not None and client.connected:
                try:
                    row["summary"] = client.call("summary")["summary"]
                except Exception as exc:
                    row["summary_error"] = str(exc)
            out[name] = row
        return out

    def kill_pop(self, name: str) -> None:
        """SIGKILL one PoP process (the chaos fault injector)."""
        proc = self.processes.get(name)
        if proc is None:
            raise KeyError(f"PoP {name!r} was never launched")
        client = self.clients.pop(name, None)
        if client is not None:
            client.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=5)

    def restart_pop(self, name: str,
                    timeout: float = DEFAULT_TIMEOUT) -> ControlClient:
        """Relaunch a dead PoP from its (unchanged) artifact."""
        self.launch_pop(name)
        return self.wait_ready(name, timeout=timeout)

    def down(self) -> None:
        """Stop every PoP (polite ``stop``, then terminate, then kill).

        Only a connected PoP can be asked to stop; one launched but never
        connected is terminated up front rather than waited on.
        """
        for name, proc in self.processes.items():
            if name not in self.clients and proc.poll() is None:
                proc.terminate()
        for name, client in list(self.clients.items()):
            try:
                client.call("stop")
            except Exception:
                pass
            client.close()
        self.clients.clear()
        for proc in self.processes.values():
            if proc.poll() is None:
                try:
                    proc.wait(timeout=5)
                except subprocess.TimeoutExpired:
                    proc.terminate()
            if proc.poll() is None:
                try:
                    proc.wait(timeout=5)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait(timeout=5)
        self.close()
        state = self.fleet.directory / STATE_FILE
        if state.exists():
            state.unlink()

    def close(self) -> None:
        """Release sockets without touching the processes."""
        for channel in self._federation_channels:
            channel.close()
        self._federation_channels.clear()
        if self._federation_listener is not None:
            self._federation_listener.close()
            self._federation_listener = None
        for client in self.clients.values():
            client.close()
        if self._own_poller:
            self.poller.close()

    # -- lockstep ----------------------------------------------------------

    def step_all(self) -> int:
        """One sweep: step every PoP, pump federation; total activity."""
        total = 0
        for name in self.fleet.pop_names():
            client = self.clients.get(name)
            if client is not None and client.connected:
                total += client.call("step")["activity"]
        total += self.poller.pump(0)
        return total

    def settle(self, quiet_sweeps: int = 2, max_sweeps: int = 10_000) -> int:
        """Sweep until ``quiet_sweeps`` consecutive all-quiet rounds.

        An all-quiet sweep is confirmed with a short blocking pump:
        loopback TCP delivers asynchronously, so bytes a PoP sent during
        its ``step`` may not be readable here (or at another PoP) until
        a moment later.  Each PoP's own settle applies the same
        confirmation, and ``step`` reports autonomous work done between
        sweeps, so nothing in flight can slip past the barrier.
        """
        total = 0
        quiet = 0
        for _ in range(max_sweeps):
            activity = self.step_all()
            if activity == 0:
                activity = self.poller.pump(0.01)
            total += activity
            quiet = quiet + 1 if activity == 0 else 0
            if quiet >= quiet_sweeps:
                return total
        raise RuntimeError("fleet failed to settle (activity never quiesced)")

    # -- federation --------------------------------------------------------

    def _accept_federation(self, channel: SocketChannel) -> None:
        self._federation_channels.append(channel)
        buffer = bytearray()

        def on_data(data: bytes) -> None:
            buffer.extend(data)
            while True:
                index = buffer.find(b"\n")
                if index < 0:
                    return
                line = bytes(buffer[:index])
                del buffer[:index + 1]
                self._federation_event(line)

        channel.on_data = on_data

    def _federation_event(self, line: bytes) -> None:
        try:
            payload = json.loads(line)
        except ValueError:
            return
        kind = payload.get("kind")
        if kind == "hello":
            return
        self.federation_events += 1
        peer = f"{payload.get('pop', '?')}/{payload.get('peer', '?')}"
        at = float(payload.get("time", 0.0))
        if kind == "peer-up":
            self.station.publish(PeerUp(
                peer=peer, time=at,
                local_asn=payload.get("local_asn", 0),
                peer_asn=payload.get("peer_asn"),
                local_id=payload.get("local_id", ""),
                addpath=payload.get("addpath", False),
                hold_time=payload.get("hold_time", 0),
            ))
        elif kind == "peer-down":
            self.station.publish(PeerDown(
                peer=peer, time=at, reason=payload.get("reason", ""),
            ))
        elif kind == "route-monitoring":
            # Route contents stay in the PoPs; the central feed carries
            # the activity (an empty RouteMonitoring still counts).
            self.station.publish(RouteMonitoring(peer=peer, time=at))
        elif kind == "resilience":
            self.station.publish(ResilienceEvent(
                peer=peer, time=at,
                event=payload.get("event", ""),
                detail=payload.get("detail", ""),
            ))
        # Other kinds (stats, health, intent) are counted but not
        # re-published: the central station models the BMP core.

    # -- CLI state ---------------------------------------------------------

    def save_state(self) -> None:
        state = {
            "digest": self.fleet.digest,
            "pids": {
                name: proc.pid for name, proc in self.processes.items()
                if proc.poll() is None
            },
        }
        (self.fleet.directory / STATE_FILE).write_text(
            json.dumps(state, sort_keys=True, indent=2) + "\n"
        )


# ---------------------------------------------------------------------------
# Stateless CLI helpers (operate on a compiled directory's state.json)
# ---------------------------------------------------------------------------


def _load_state(directory: Path) -> Optional[dict]:
    path = Path(directory) / STATE_FILE
    if not path.exists():
        return None
    try:
        state = json.loads(path.read_text())
    except ValueError:
        return None
    return state if isinstance(state, dict) else None


def _pid_alive(pid: int) -> bool:
    # A child of this process that exited stays a zombie, which
    # ``kill(pid, 0)`` still reaches, until it is reaped.
    try:
        if os.waitpid(pid, os.WNOHANG)[0] == pid:
            return False
    except ChildProcessError:
        pass  # not our child: its own parent reaps it
    try:
        os.kill(pid, 0)
    except OSError:
        return False
    return True


def fleet_status(fleet: CompiledFleet) -> Dict[str, dict]:
    """Status of a fleet booted by an earlier ``peering fleet up``."""
    state = _load_state(fleet.directory) or {"pids": {}}
    out: Dict[str, dict] = {}
    for name in fleet.pop_names():
        pid = state["pids"].get(name)
        row = {"pid": pid, "running": pid is not None and _pid_alive(pid)}
        if row["running"]:
            client = ControlClient(
                fleet.world["ports"]["pops"][name]["control"]
            )
            try:
                client.connect(retry_for=2.0)
                row["summary"] = client.call("summary")["summary"]
            except Exception as exc:
                row["summary_error"] = str(exc)
            finally:
                client.close()
        out[name] = row
    return out


def fleet_down(fleet: CompiledFleet, timeout: float = 10.0) -> Dict[str, str]:
    """Stop a fleet booted by an earlier ``peering fleet up``."""
    state = _load_state(fleet.directory) or {"pids": {}}
    outcome: Dict[str, str] = {}
    for name in fleet.pop_names():
        pid = state["pids"].get(name)
        if pid is None or not _pid_alive(pid):
            outcome[name] = "not running"
            continue
        client = ControlClient(
            fleet.world["ports"]["pops"][name]["control"]
        )
        try:
            client.connect(retry_for=2.0)
            client.call("stop")
            outcome[name] = "stopped"
        except Exception:
            try:
                os.kill(pid, signal.SIGTERM)
                outcome[name] = "terminated"
            except OSError:
                outcome[name] = "gone"
        finally:
            client.close()
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline and _pid_alive(pid):
            time.sleep(0.05)
        if _pid_alive(pid):
            try:
                os.kill(pid, signal.SIGKILL)
                outcome[name] = "killed"
            except OSError:
                pass
    path = Path(fleet.directory) / STATE_FILE
    if path.exists():
        path.unlink()
    return outcome
