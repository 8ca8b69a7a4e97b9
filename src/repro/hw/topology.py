"""System topology — paper Fig. 3 as a graph.

The A300-8 block diagram: two Xeon sockets joined by UPI; each socket
feeds one PCIe switch; each switch connects four Vector Engines. The
topology answers one question the evaluation cares about (Sec. V-A):
*how many UPI hops lie between the CPU socket a process runs on and a
given VE?* — offloading from the second socket "adds up to 1 µs".

The graph is an adjacency dict (``node -> {neighbour: link kind}``) and
the query a breadth-first search over it: a dozen nodes need no graph
library.
"""

from __future__ import annotations

from collections import deque

from repro.hw.specs import A300_8, SystemSpec

__all__ = ["SystemTopology"]


class SystemTopology:
    """Graph model of the host/VE interconnect.

    Node names: ``socket0``, ``socket1``, ``pcie_switch0``, ...,
    ``ve0`` ... ``ve7``. Link kind is ``"upi"`` or ``"pcie"``.
    """

    def __init__(self, spec: SystemSpec = A300_8) -> None:
        self.spec = spec
        self.adjacency: dict[str, dict[str, str]] = {}
        for a in range(spec.num_cpu_sockets):
            for b in range(a):
                self._link(f"socket{b}", f"socket{a}", "upi")
        num_switches = max(1, spec.num_ves // spec.ves_per_switch)
        for switch in range(num_switches):
            socket = min(switch, spec.num_cpu_sockets - 1)
            self._link(f"socket{socket}", f"pcie_switch{switch}", "pcie")
        for ve in range(spec.num_ves):
            switch = min(ve // spec.ves_per_switch, num_switches - 1)
            self._link(f"pcie_switch{switch}", f"ve{ve}", "pcie")

    def _link(self, a: str, b: str, kind: str) -> None:
        self.adjacency.setdefault(a, {})[b] = kind
        self.adjacency.setdefault(b, {})[a] = kind

    def upi_hops(self, socket: int, ve_index: int) -> int:
        """UPI crossings between ``socket`` and ``ve_index``.

        0 when the VE hangs off the given socket's PCIe switch, 1 when the
        path crosses the socket interconnect.
        """
        source, target = f"socket{socket}", f"ve{ve_index}"
        if source not in self.adjacency or target not in self.adjacency:
            raise ValueError(f"no {source} or no {target} in this system")
        # Breadth-first: the first visit of a node is along a path with
        # the fewest links, whose UPI links are counted on the way.
        hops = {source: 0}
        queue = deque([source])
        while target not in hops:
            a = queue.popleft()
            for b, kind in self.adjacency[a].items():
                if b not in hops:
                    hops[b] = hops[a] + (kind == "upi")
                    queue.append(b)
        return hops[target]

    def local_socket(self, ve_index: int) -> int:
        """The socket with a UPI-free path to ``ve_index``."""
        return self.spec.socket_of_ve(ve_index)

    def ves_of_socket(self, socket: int) -> list[int]:
        """Indices of VEs locally attached to ``socket``."""
        return [
            ve for ve in range(self.spec.num_ves) if self.local_socket(ve) == socket
        ]

    def describe(self) -> str:
        """One-line-per-node description (used by example scripts)."""
        lines = []
        for socket in range(self.spec.num_cpu_sockets):
            ves = ", ".join(f"ve{i}" for i in self.ves_of_socket(socket))
            lines.append(f"socket{socket} ({self.spec.cpu.name}): {ves}")
        return "\n".join(lines)
