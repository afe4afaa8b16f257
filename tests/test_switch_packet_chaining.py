"""Tests for the packet-chaining extension (paper Section 4.2's mitigation).

"Throughput loss from the Swizzle Switch's arbitration cycle can be
mitigated by applying techniques such as Packet Chaining to multiple small
packets headed to the same destination." Chaining here is QoS-safe: the
arbiter still selects every winner; only a back-to-back *repeat* winner
skips the bubble, and chains are bounded by ``max_chain_length``.
"""

from dataclasses import replace

import pytest

from repro.config import GLPolicerConfig, QoSConfig, SwitchConfig
from repro.experiments.common import run_simulation
from repro.qos import LRGArbiter
from repro.switch.simulator import Simulation
from repro.traffic.flows import Workload, be_flow, gb_flow
from repro.traffic.generators import TraceInjection
from repro.types import FlowId, TrafficClass


def chained_config(max_chain=8, radix=4):
    return SwitchConfig(
        radix=radix,
        channel_bits=64 if radix == 4 else 128,
        gb_buffer_flits=32,
        be_buffer_flits=32,
        packet_chaining=True,
        max_chain_length=max_chain,
        qos=QoSConfig(sig_bits=3, frac_bits=6),
        gl_policer=GLPolicerConfig(reserved_rate=0.0),
    )


def lrg_factory(output, config):
    return LRGArbiter(config.radix)


class TestChainingThroughput:
    def test_single_backlogged_flow_reaches_full_rate(self):
        """One sender, same destination: ceiling moves from L/(L+1) to ~1.0."""
        config = chained_config(max_chain=1000)
        workload = Workload().add(gb_flow(0, 1, 0.9, packet_length=4, inject_rate=None))
        result = run_simulation(config, workload, arbiter="lrg", horizon=20_000, seed=1)
        assert result.stats.output_throughput(1) == pytest.approx(1.0, abs=0.01)
        assert result.chained_grants > 0

    def test_disabled_chaining_keeps_the_bubble(self):
        config = replace(chained_config(), packet_chaining=False)
        workload = Workload().add(gb_flow(0, 1, 0.9, packet_length=4, inject_rate=None))
        result = run_simulation(config, workload, arbiter="lrg", horizon=20_000, seed=1)
        assert result.stats.output_throughput(1) == pytest.approx(0.8, abs=0.01)
        assert result.chained_grants == 0

    def test_small_packets_benefit_most(self):
        """The paper's motivation: chaining helps small-packet streams."""
        gains = {}
        for flits in (1, 8):
            rates = {}
            for chaining in (False, True):
                config = replace(chained_config(max_chain=1000),
                                 packet_chaining=chaining)
                workload = Workload().add(
                    gb_flow(0, 1, 0.9, packet_length=flits, inject_rate=None)
                )
                result = run_simulation(config, workload, arbiter="lrg",
                                        horizon=20_000, seed=1)
                rates[chaining] = result.stats.output_throughput(1)
            gains[flits] = rates[True] / rates[False]
        assert gains[1] > gains[8] > 1.0
        assert gains[1] == pytest.approx(2.0, abs=0.05)  # 0.5 -> 1.0


    def test_ssvc_two_flit_stream_recovers_the_bubble(self):
        """Section 4.2's mitigation on the Fig. 4 switch: 2-flit packets
        lose a third of the channel to the bubble unless chained."""
        from repro.experiments.common import gb_only_config

        rates = {}
        for chaining in (False, True):
            config = replace(
                gb_only_config(), packet_chaining=chaining, max_chain_length=64
            )
            workload = Workload().add(
                gb_flow(0, 0, 0.9, packet_length=2, inject_rate=None)
            )
            result = run_simulation(config, workload, arbiter="ssvc",
                                    horizon=20_000, seed=1)
            rates[chaining] = result.stats.output_throughput(0)
        assert rates[False] == pytest.approx(2 / 3, abs=0.01)
        assert rates[True] == pytest.approx(1.0, abs=0.02)


class TestChainingFairness:
    def test_alternating_winners_never_chain(self):
        """Two backlogged inputs under LRG alternate, so nothing chains."""
        config = chained_config()
        workload = Workload()
        workload.add(gb_flow(0, 1, 0.4, packet_length=4, inject_rate=None))
        workload.add(gb_flow(1, 1, 0.4, packet_length=4, inject_rate=None))
        result = run_simulation(config, workload, arbiter="lrg", horizon=10_000, seed=1)
        assert result.chained_grants == 0

    def test_chain_length_is_bounded(self):
        """After max_chain_length chained packets, a bubble is paid again."""
        config = chained_config(max_chain=2)
        # 9 back-to-back 4-flit packets from one input.
        workload = Workload().add(
            be_flow(0, 1, packet_length=4, process=TraceInjection([0] * 9))
        )
        sim = Simulation(config, workload, arbiter_factory=lrg_factory,
                         warmup_cycles=0, collect_events=True)
        result = sim.run(1000)
        # Pattern: arb+4, chain, chain, arb+4, chain, chain, ... -> 6 chained.
        assert result.chained_grants == 6
        from repro.switch.events import GrantEvent

        grants = [e.cycle for e in result.events if isinstance(e, GrantEvent)]
        assert grants[:4] == [0, 5, 9, 13]  # bubble, chain, chain, bubble

    def test_qos_rates_unchanged_by_chaining(self):
        """Chaining never changes who wins, so reservations still hold."""
        rates_by_mode = {}
        for chaining in (False, True):
            config = replace(
                chained_config(radix=8, max_chain=4), packet_chaining=chaining
            )
            workload = Workload()
            reserved = [0.35, 0.25, 0.15, 0.10]
            for src, rate in enumerate(reserved):
                workload.add(gb_flow(src, 0, rate, packet_length=8, inject_rate=None))
            result = run_simulation(config, workload, arbiter="ssvc",
                                    horizon=40_000, seed=7)
            rates_by_mode[chaining] = [
                result.accepted_rate(FlowId(src, 0, TrafficClass.GB))
                for src in range(4)
            ]
        for src, reserved_rate in enumerate([0.35, 0.25, 0.15, 0.10]):
            assert rates_by_mode[True][src] >= reserved_rate - 0.01
            # Chaining can only add throughput, never remove it.
            assert rates_by_mode[True][src] >= rates_by_mode[False][src] - 0.01


class TestConfigValidation:
    def test_rejects_zero_max_chain(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            SwitchConfig(max_chain_length=0)
