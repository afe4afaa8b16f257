"""Section 3.4, Eq. 1 — the Guaranteed Latency waiting-time bound.

``tau_GL <= l_max + N_GL,o * (b + b/l_min)``: a buffered GL packet waits at
most one maximum-length channel occupancy (a GB/BE packet already holding
the output) plus the transmit and arbitration latency of every GL flit that
can possibly be buffered ahead of it across all GL inputs.

The experiment drives the bound adversarially: ``n_gl`` inputs inject GL
packets (lengths spanning [l_min, l_max_gl]) while every other input
saturates the same output with maximum-length GB traffic and the policer is
disabled (the bound presumes GL priority is always honoured; the *policing
ablation* is exactly what :func:`run_policing_ablation` measures — an
unpoliced saturating GL source starves the GB class, which is why the
paper adds the safeguard).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..config import GLPolicerConfig, QoSConfig, SwitchConfig
from ..core.gl_bound import gl_latency_bound
from ..errors import SimulationError
from ..metrics.report import format_table
from ..traffic.flows import Workload, gb_flow, gl_flow
from ..traffic.generators import BernoulliInjection
from ..types import FlowId, TrafficClass
from .claims import Claim, Report
from .common import run_simulation

#: GL input counts Eq. 1 is checked at (the bound grows with N_GL).
GL_POPULATIONS = (1, 3, 6)

#: GL packets a bound check needs before its verdict means anything.
MIN_GL_PACKETS = 100


def _gl_config(
    gl_buffer_flits: int,
    gl_reserved: float,
    burst_window: "int | None",
) -> SwitchConfig:
    return SwitchConfig(
        radix=8,
        channel_bits=128,
        gb_buffer_flits=16,
        gl_buffer_flits=gl_buffer_flits,
        qos=QoSConfig(sig_bits=4, frac_bits=8),
        gl_policer=GLPolicerConfig(reserved_rate=gl_reserved, burst_window=burst_window),
    )


@dataclass
class GLBoundResult:
    """Measured GL waiting times against Eq. 1.

    Attributes:
        bound: the Eq. 1 value in cycles.
        max_waiting: worst measured injection-to-grant wait of a GL packet.
        mean_waiting: average GL wait.
        gl_packets: GL packets measured.
        params: (l_max, l_min, n_gl, buffer_flits) used by the bound.
    """

    bound: float
    max_waiting: int
    mean_waiting: float
    gl_packets: int
    params: Tuple[int, int, int, int]

    @property
    def holds(self) -> bool:
        """Did every measured wait stay within the bound?"""
        return self.max_waiting <= self.bound

    def claim(self) -> Claim:
        """Eq. 1 at this run's N_GL, judged on enough packets to matter."""
        n_gl = self.params[2]
        return Claim(
            f"every GL wait stays within Eq. 1 with N_GL={n_gl}",
            "§3.4 Eq. 1",
            self.holds and self.gl_packets >= MIN_GL_PACKETS,
            f"max wait {self.max_waiting} vs bound {self.bound:g} over "
            f"{self.gl_packets} packets (need >= {MIN_GL_PACKETS})",
        )

    def format(self) -> str:
        l_max, l_min, n_gl, b = self.params
        rows = [
            ("Eq.1 bound (cycles)", self.bound),
            ("measured max waiting", self.max_waiting),
            ("measured mean waiting", self.mean_waiting),
            ("GL packets measured", self.gl_packets),
            ("bound holds", "yes" if self.holds else "NO"),
        ]
        return format_table(
            ["quantity", "value"],
            rows,
            title=(
                f"GL latency bound: l_max={l_max}, l_min={l_min}, "
                f"N_GL={n_gl}, b={b}"
            ),
            float_format=".1f",
        )


def run_gl_bound(
    n_gl: int = 3,
    gl_buffer_flits: int = 4,
    l_min: int = 1,
    l_max_gl: int = 2,
    gb_packet_flits: int = 8,
    gl_rate: float = 0.01,
    horizon: int = 120_000,
    seed: int = 17,
) -> GLBoundResult:
    """Measure GL waiting under adversarial GB congestion.

    Args:
        n_gl: inputs injecting GL traffic to output 0.
        gl_buffer_flits: GL buffer depth ``b``.
        l_min: minimum GL packet length.
        l_max_gl: maximum GL packet length (GL packets draw uniformly from
            [l_min, l_max_gl]; the bound's ``l_max`` is the *system-wide*
            maximum, i.e. the GB packet length).
        gb_packet_flits: length of the congesting GB packets (= l_max).
        gl_rate: per-input GL offered load in flits/cycle ("infrequent,
            time-critical messages").
        horizon: cycles.
        seed: RNG seed.
    """
    config = _gl_config(gl_buffer_flits, gl_reserved=0.05, burst_window=None)
    workload = Workload(name="gl-bound")
    gb_share = 0.9 / config.radix
    for src in range(config.radix):
        # Everyone congests the output with max-length GB packets.
        workload.add(
            gb_flow(src, 0, gb_share, packet_length=gb_packet_flits, inject_rate=None)
        )
        if src < n_gl:
            workload.add(
                gl_flow(
                    src,
                    0,
                    packet_length=(l_min, l_max_gl),
                    process=BernoulliInjection(gl_rate),
                )
            )
    sim_result = run_simulation(
        config, workload, arbiter="three-class", horizon=horizon, seed=seed
    )
    bound = gl_latency_bound(
        l_max=gb_packet_flits, l_min=l_min, n_gl=n_gl, buffer_flits=gl_buffer_flits
    )
    waits = []
    packets = 0
    for src in range(n_gl):
        stats = sim_result.stats.flow_stats(FlowId(src, 0, TrafficClass.GL))
        if stats.waiting.count:
            waits.append(stats.waiting)
            packets += stats.waiting.count
    if not waits:
        raise SimulationError("no GL packets delivered; increase horizon or gl_rate")
    max_wait = max(w.maximum for w in waits)
    mean_wait = sum(w.mean * w.count for w in waits) / packets
    return GLBoundResult(
        bound=bound,
        max_waiting=max_wait,
        mean_waiting=mean_wait,
        gl_packets=packets,
        params=(gb_packet_flits, l_min, n_gl, gl_buffer_flits),
    )


@dataclass
class PolicingAblation:
    """GB throughput with a saturating (abusive) GL source, +/- policing.

    Attributes:
        gb_throughput_policed: GB flits/cycle with the safeguard on.
        gb_throughput_unpoliced: GB flits/cycle with it off.
        gl_throughput_policed / gl_throughput_unpoliced: the abuser's take.
    """

    gb_throughput_policed: float
    gb_throughput_unpoliced: float
    gl_throughput_policed: float
    gl_throughput_unpoliced: float

    def claim(self) -> Claim:
        """The safeguard: unpoliced GL starves GB; policed GL cannot."""
        return Claim(
            "policing stops a saturating GL source from starving GB",
            "§3.4 safeguard",
            self.gb_throughput_unpoliced < 0.05
            and self.gb_throughput_policed > 0.7
            and self.gl_throughput_policed < 0.15,
            f"GB {self.gb_throughput_policed:.3f} policed vs "
            f"{self.gb_throughput_unpoliced:.3f} unpoliced (need > 0.7, < 0.05); "
            f"policed abuser {self.gl_throughput_policed:.3f} (need < 0.15)",
        )

    def format(self) -> str:
        rows = [
            ("GB", self.gb_throughput_policed, self.gb_throughput_unpoliced),
            ("GL (abuser)", self.gl_throughput_policed, self.gl_throughput_unpoliced),
        ]
        return format_table(
            ["class", "policed", "unpoliced"],
            rows,
            title="GL policing ablation (flits/cycle at the contested output)",
        )


def run_policing_ablation(horizon: int = 60_000, seed: int = 9) -> PolicingAblation:
    """A saturating GL source with and without the Section 3.4 safeguard."""
    results = {}
    for label, window in (("policed", 2048), ("unpoliced", None)):
        config = _gl_config(gl_buffer_flits=8, gl_reserved=0.05, burst_window=window)
        workload = Workload(name=f"gl-abuse-{label}")
        for src in range(1, config.radix):
            workload.add(gb_flow(src, 0, 0.9 / config.radix, inject_rate=None))
        workload.add(gl_flow(0, 0, packet_length=4, inject_rate=None))  # abuser
        sim_result = run_simulation(
            config, workload, arbiter="three-class", horizon=horizon, seed=seed
        )
        results[label] = (
            sim_result.stats.class_throughput(TrafficClass.GB),
            sim_result.stats.class_throughput(TrafficClass.GL),
        )
    return PolicingAblation(
        gb_throughput_policed=results["policed"][0],
        gb_throughput_unpoliced=results["unpoliced"][0],
        gl_throughput_policed=results["policed"][1],
        gl_throughput_unpoliced=results["unpoliced"][1],
    )


def main(fast: bool = False) -> Report:
    """CLI entry: the bound at each GL population plus the policing ablation."""
    horizon = 40_000 if fast else 120_000
    bounds = [run_gl_bound(n_gl=n, horizon=horizon) for n in GL_POPULATIONS]
    ablation = run_policing_ablation(horizon=max(horizon // 2, 20_000))
    return Report(
        "\n\n".join([b.format() for b in bounds] + [ablation.format()]),
        tuple([b.claim() for b in bounds] + [ablation.claim()]),
    )
