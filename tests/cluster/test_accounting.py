"""Accounting regression: stalled cards draw idle power, exactly.

Pins the identities of the cluster solver's ledger:

    ``energy_j == Σ busy_energy_i + Σ stall_i · idle_w``   (exact)
    ``busy_i + stall_i == wall_time_s``  for every card    (exact)

so halo-exchange barriers can never silently vanish from the energy
ledger, and, under DES timing, that the per-card devices supply exactly
the busy time and busy energy the ledger reports.
"""

from dataclasses import replace

import pytest

from repro.cluster import ClusterConfig, ClusterSolver
from repro.faults import CardFailure, FaultPlan
from repro.perfmodel.calibration import DEFAULT_COSTS

DES_2X1 = ClusterConfig(nx=64, ny=32, iterations=3, cards_y=2, cards_x=1,
                        cores_y=2, cores_x=2, timing="des")


def solve(**kw):
    defaults = dict(nx=64, ny=64, iterations=6, cards_y=2, cards_x=2)
    defaults.update(kw)
    return ClusterSolver(ClusterConfig(**defaults)).solve()


class TestResultIdentity:
    def test_energy_identity_exact_model(self):
        res = solve()
        assert res.energy_j == res.energy_identity_j()

    def test_energy_identity_exact_des(self):
        res = solve(nx=64, ny=32, iterations=3, cards_y=2, cards_x=1,
                    cores_y=2, cores_x=2, timing="des")
        assert res.energy_j == pytest.approx(res.energy_identity_j(),
                                             abs=1e-15)

    def test_busy_plus_stall_is_wall_per_card(self):
        res = solve()
        for busy, stall in zip(res.busy_s, res.stall_s):
            assert busy + stall == res.wall_time_s

    def test_stalls_include_host_staging(self):
        """Every card idles through scatter/exchange/gather, so per-card
        stall is at least the total host staging time."""
        res = solve()
        assert res.host_stage_s > 0
        for stall in res.stall_s:
            assert stall >= res.host_stage_s

    def test_uneven_split_stalls_fast_cards(self):
        """A 3-way split of 64 rows gives one card fewer rows: fast
        cards must accrue more stall, but identical wall and energy
        identity still hold."""
        res = solve(ny=64, cards_y=3, cards_x=1)
        assert max(res.stall_s) > min(res.stall_s)
        assert res.energy_j == res.energy_identity_j()

    def test_idle_power_priced_at_calibrated_idle_watts(self):
        res = solve()
        assert res.power_idle_w == DEFAULT_COSTS.card_power_idle_w
        stall_j = sum(s * res.power_idle_w for s in res.stall_s)
        busy_j = sum(res.busy_energy_j)
        assert res.energy_j == busy_j + stall_j


class TestDesLedger:
    """Under DES timing the per-card devices feed the ledger busy time
    and busy energy only; the solver's ledger is the whole account."""

    def _check_devices(self, solver, res):
        devices = solver.last_des_cluster
        assert len(devices) == res.n_cards
        assert [d.device_id for d in devices] == list(range(res.n_cards))
        assert len({id(d.sim) for d in devices}) == res.n_cards
        for i, dev in enumerate(devices):
            assert res.busy_energy_j[i] == dev.energy.energy_j
            assert res.busy_s[i] == pytest.approx(dev.sim.now, abs=1e-15)

    def test_plain_run_feeds_ledger_from_devices(self):
        solver = ClusterSolver(DES_2X1)
        res = solver.solve()
        self._check_devices(solver, res)

    def test_remap_run_feeds_ledger_from_devices(self):
        cfg = replace(DES_2X1, iterations=4, checkpoint_every=2)
        plan = FaultPlan(seed=0, card_failures=(CardFailure(3, 0, 0),))
        solver = ClusterSolver(cfg)
        res = solver.solve(plan=plan)
        assert res.restarts == 1 and res.remap == (((0, 0), (1, 0)),)
        self._check_devices(solver, res)
        # the dead card's clock stopped at its failure; the survivor
        # recomputed both blocks from the checkpoint
        assert res.busy_s[0] < res.busy_s[1]

    def test_des_figures_pinned(self):
        """Exact DES ledger figures of the CI smoke configuration."""
        res = ClusterSolver(DES_2X1).solve()
        assert res.wall_time_s == 0.00010317775068103649
        assert res.energy_j == 0.009887117049837364
        assert res.stall_s == (2.6658e-05, 2.6658e-05)
        assert res.host_stage_s == 2.6658e-05
