import hashlib
import json
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (
    reference_multi_rooted_graph,
    reference_sample_root_family,
    reference_single_rooted_graph,
)

from rootcons.adversary import (
    AdversaryCertificate,
    AdversaryParams,
    InfeasibleParamsError,
    _below,
    _multi_rooted_graph,
    _sample_root_family,
    _single_rooted_graph,
    check_alt_estable,
    check_estable,
    check_liveness,
    check_mad,
    diagnose,
    generate_alt_estable,
    generate_estable,
)
from rootcons.graphs import LassoSequence, lasso, lasso_to_json, maximal_root_runs, single_rooted_rounds
from rootcons.harness import scenario_stab_not_enough


class TestLiveness:
    def test_eps1_certificate(self, eps1_lasso):
        cert = check_liveness(eps1_lasso)
        assert (cert.r_gst, cert.r_sr, sorted(cert.root)) == (1, 1, [1])

    def test_eps2_certificate(self, eps2_lasso):
        # the root set becomes common at D+1 and single at 2D+1
        cert = check_liveness(eps2_lasso)
        assert (cert.r_gst, cert.r_sr, sorted(cert.root)) == (3, 5, [4])

    def test_all_disconnected_never_single(self):
        assert check_liveness(lasso(3, cycle=[[]])) is None


class TestSafety:
    def test_eps2_safety_holds_for_x_two(self, eps2_lasso):
        assert diagnose("safety", eps2_lasso, {"x": 2}).witness is None

    def test_isolated_head_violates_safety(self):
        cfg1, cfg2 = scenario_stab_not_enough(5, tau=4, D=2)
        witness = diagnose("safety", cfg2.lasso, {"x": 2}).witness
        assert witness is not None
        assert (sorted(witness.root), witness.start, witness.end) == ([1], 1, 4)

    def test_static_single_rooted_forever_ok(self, eps1_lasso):
        assert diagnose("safety", eps1_lasso, {"x": 1}).witness is None

    def test_witness_confirmed_by_interval_scan(self):
        cfg1, cfg2 = scenario_stab_not_enough(5, tau=4, D=2)
        witness = diagnose("safety", cfg2.lasso, {"x": 2}).witness
        runs = maximal_root_runs(cfg2.lasso, 10)
        assert any(
            run.root == witness.root and run.start == witness.start and run.end == witness.end
            for run in runs
        )

    def test_x_below_one_rejected(self, eps1_lasso):
        with pytest.raises(ValueError):
            diagnose("safety", eps1_lasso, {"x": 0}).witness

    def test_no_x_and_no_d_rejected(self, eps1_lasso):
        with pytest.raises(ValueError, match="safety check needs parameter x"):
            diagnose("safety", eps1_lasso, {})

    def test_unknown_kind_rejected(self, eps1_lasso):
        with pytest.raises(ValueError, match="unknown adversary kind 'bogus'"):
            diagnose("bogus", eps1_lasso, {"D": 1})


class TestEStable:
    def test_liveness_computed_once(self, eps2_lasso, monkeypatch):
        import rootcons.adversary as adversary

        calls = []
        real = adversary.check_liveness
        monkeypatch.setattr(adversary, "check_liveness", lambda l: calls.append(l) or real(l))
        assert check_estable(eps2_lasso, 2) is not None
        assert len(calls) == 1

    def test_eps1(self, eps1_lasso):
        cert = check_estable(eps1_lasso, 2)
        assert cert is not None
        assert (cert.r_sr, sorted(cert.root)) == (1, [1])
        assert cert.deadline == 5

    def test_eps2(self, eps2_lasso):
        cert = check_estable(eps2_lasso, 2)
        assert cert is not None
        assert (cert.r_sr, sorted(cert.root)) == (5, [4])
        assert cert.deadline == 9

    def test_safety_violator_rejected(self):
        _, cfg2 = scenario_stab_not_enough(5, tau=4, D=2)
        assert check_estable(cfg2.lasso, 2) is None


class TestAltLiveness:
    def test_estable_lasso_reappearances_follow_single_phase(self, eps2_lasso):
        cert = diagnose("altliveness", eps2_lasso, {"D": 2, "x": 2}).certificate
        assert cert is not None
        assert (cert.r_gst, cert.r_sr, sorted(cert.root)) == (3, 5, [4])
        assert cert.reappearances == (8, 9)  # first rounds after r_sr + x

    def test_single_phase_without_reappearances_is_none(self):
        # root {1} single for exactly x+1 rounds, never again; the tail roots
        # alternate every round so no other run reaches length x+1 either
        l = lasso(
            3,
            prefix=[[(1, 2), (1, 3)], [(1, 2), (1, 3)]],
            cycle=[[(2, 1), (2, 3)], [(3, 1), (3, 2)]],
        )
        assert diagnose("altliveness", l, {"D": 1, "x": 1}).certificate is None

    def test_generated_round_trip(self):
        l, planted = generate_alt_estable(AdversaryParams(n=5, D=2, seed=3, r_sr_target=7))
        horizon = max(l.default_horizon(), planted.deadline + 1)
        cert = diagnose("altliveness", l, {"D": 2, "x": 2, "horizon": horizon}).certificate
        assert cert is not None
        assert (cert.r_gst, cert.r_sr) <= (planted.r_gst, planted.r_sr)


class TestAltSafety:
    def test_eps2_ok(self, eps2_lasso):
        assert diagnose("altsafety", eps2_lasso, {"x": 2}).witness is None

    def test_two_parallel_roots_without_single_phase(self):
        # {1} and {2} stay common roots side by side for x+1 rounds: the
        # earliest long run never becomes single
        l = lasso(4, prefix=[[(1, 3), (2, 4)]] * 3, cycle=[[(1, 2), (1, 3), (1, 4)]])
        witness = diagnose("altsafety", l, {"x": 2}).witness
        assert witness is not None
        assert witness.start == 1
        singles = single_rooted_rounds(l, witness.end)
        for a in range(witness.start, witness.end - 1):
            assert not any({a, a + 1, a + 2} <= set(rounds) for rounds in singles.values())

    def test_single_rooted_forever_ok(self, eps1_lasso):
        assert diagnose("altsafety", eps1_lasso, {"x": 2}).witness is None


class TestAltEStable:
    def test_every_estable_lasso_is_alt_estable_and_mad(self):
        rng = random.Random(10)
        for _ in range(40):
            n = rng.randint(2, 8)
            D = rng.randint(1, min(3, n - 1))
            params = AdversaryParams(n=n, D=D, seed=rng.getrandbits(40), r_sr_target=rng.randint(1, 9))
            l, cert = generate_estable(params)
            assert check_estable(l, D) is not None
            alt = check_alt_estable(l, D)
            assert alt is not None
            assert alt.deadline == cert.r_sr + 2 * D  # reappearances right after the phase
            assert check_mad(l, D, D, D) is not None

    def test_generator_round_trip(self):
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randint(2, 8)
            D = rng.randint(1, min(3, n - 1))
            params = AdversaryParams(n=n, D=D, seed=rng.getrandbits(40))
            l, planted = generate_alt_estable(params)
            horizon = max(l.default_horizon(), planted.deadline + 1)
            cert = check_alt_estable(l, D, horizon)
            assert cert is not None
            assert (cert.r_gst, cert.r_sr) <= (planted.r_gst, planted.r_sr)

    def test_alt_safety_violator_rejected(self):
        l = lasso(4, prefix=[[(1, 3), (2, 4)]] * 3, cycle=[[(1, 2), (1, 3), (1, 4)]])
        assert check_alt_estable(l, 2) is None

    @pytest.mark.parametrize("kind", ["altestable", "mad"])
    def test_one_root_run_scan_per_scan_bound(self, monkeypatch, kind):
        # alt_safety and alt_liveness share the verdict's scan: with the
        # horizon given both scan to the same bound and one scan serves both;
        # without it their bounds differ and each is scanned once
        import rootcons.adversary as adversary

        real = adversary.maximal_root_runs
        l, planted = generate_alt_estable(AdversaryParams(n=6, D=2, seed=4))
        for horizon, scans in ((max(l.default_horizon(), planted.deadline + 1), 1), (None, 2)):
            bounds = []
            monkeypatch.setattr(
                adversary, "maximal_root_runs", lambda *args: bounds.append(args[1:]) or real(*args)
            )
            verdict = adversary.diagnose(kind, l, {"D": 2, "horizon": horizon})
            assert verdict.ok
            assert len(bounds) == len(set(bounds)) == scans


class TestMad:
    def test_mad_d_d_matches_alt_estable(self, eps2_lasso):
        for l in [eps2_lasso]:
            alt = check_alt_estable(l, 2)
            mad = check_mad(l, 2, 2, 2)
            assert (alt is None) == (mad is None)
            if alt:
                assert (alt.r_gst, alt.r_sr, alt.reappearances) == (
                    mad.r_gst,
                    mad.r_sr,
                    mad.reappearances,
                )

    def test_estable_passes_mad(self):
        l, _ = generate_estable(AdversaryParams(n=6, D=2, seed=5, r_sr_target=4))
        assert check_mad(l, 2, 2, 2) is not None

    def test_unsolvable_regime_still_certified(self):
        # x > y: safety windows longer than the liveness phase; consensus is
        # not solvable there but the checker only decides membership
        x, y, D = 2, 1, 1
        l = lasso(
            3,
            prefix=[[(1, 2), (1, 3)]] * (x + 1),  # {1} common x+1 rounds, single phase inside
            cycle=[[(1, 2), (1, 3)]],
        )
        cert = check_mad(l, x, y, D)
        assert cert is not None
        assert cert.params == {"D": D, "x": x, "y": y}


class TestVsrc:
    def test_estable_implies_vsrc_4d(self):
        rng = random.Random(12)
        for _ in range(25):
            n = rng.randint(2, 8)
            D = rng.randint(1, min(3, n - 1))
            l, _ = generate_estable(
                AdversaryParams(n=n, D=D, seed=rng.getrandbits(40), r_sr_target=rng.randint(1, 9))
            )
            assert diagnose("vsrc", l, {"D": D, "window": 4 * D}).ok

    def test_eps1_window_8(self, eps1_lasso):
        res = diagnose("vsrc", eps1_lasso, {"D": 2, "window": 8})
        assert res.ok and res.certificate.window_start == 1

    def test_roots_flipping_every_two_rounds(self):
        g_a = [(1, 2), (1, 3)]
        g_b = [(2, 1), (2, 3)]
        l = lasso(3, cycle=[g_a, g_a, g_b, g_b])
        assert not diagnose("vsrc", l, {"D": 2, "window": 4}).ok


class TestGenerators:
    def test_smallest_system(self):
        l, cert = generate_estable(AdversaryParams(n=2, D=1, seed=0, r_sr_target=1))
        assert cert.r_sr == 1
        assert check_estable(l, 1) is not None

    def test_requested_stabilization_round(self):
        l, cert = generate_estable(AdversaryParams(n=5, D=2, seed=42, r_sr_target=6))
        assert cert.r_sr == 6
        assert check_estable(l, 2).r_sr == 6

    def test_gst_before_sr(self):
        l, cert = generate_estable(
            AdversaryParams(n=6, D=2, seed=9, r_gst_target=3, r_sr_target=6)
        )
        assert (cert.r_gst, cert.r_sr) == (3, 6)

    def test_deterministic_in_seed(self):
        p = AdversaryParams(n=6, D=2, seed=77, r_sr_target=5)
        l1, c1 = generate_estable(p)
        l2, c2 = generate_estable(p)
        assert lasso_to_json(l1) == lasso_to_json(l2)
        assert c1 == c2
        a1, _ = generate_alt_estable(AdversaryParams(n=5, D=2, seed=77))
        a2, _ = generate_alt_estable(AdversaryParams(n=5, D=2, seed=77))
        assert lasso_to_json(a1) == lasso_to_json(a2)

    def test_infeasible_d(self):
        with pytest.raises(InfeasibleParamsError):
            generate_estable(AdversaryParams(n=5, D=5, seed=0))

    def test_infeasible_two_process_lead_in(self):
        with pytest.raises(InfeasibleParamsError):
            generate_estable(AdversaryParams(n=2, D=1, seed=0, r_gst_target=2, r_sr_target=5))

    @pytest.mark.parametrize("generate", [generate_estable, generate_alt_estable])
    @pytest.mark.parametrize(
        "targets, match",
        [
            ({"r_gst_target": 0}, "r_gst_target must be >= 1"),
            ({"r_gst_target": 6, "r_sr_target": 5}, "need r_sr_target >= r_gst_target"),
        ],
    )
    def test_infeasible_stabilization_targets(self, generate, targets, match):
        with pytest.raises(InfeasibleParamsError, match=match):
            generate(AdversaryParams(n=5, D=2, seed=0, **targets))

    def test_unknown_tail_style_rejected(self):
        with pytest.raises(ValueError, match="unknown tail style 'dense'"):
            generate_alt_estable(AdversaryParams(n=5, D=2, seed=0), tail="dense")

    def test_spurious_early_root_planted(self):
        params = AdversaryParams(n=6, D=1, seed=21, r_gst_target=12, r_sr_target=12)
        l, planted = generate_alt_estable(params, spurious=True)
        assert planted.params["spurious"] is not None
        runs = maximal_root_runs(l, l.default_horizon(), 2)
        first = min(runs, key=lambda r: r.start)
        assert first.root == frozenset(planted.params["spurious"])
        assert first.root != planted.root
        horizon = max(l.default_horizon(), planted.deadline + 1)
        assert check_alt_estable(l, 1, horizon) is not None

    def test_sparse_tail_is_not_estable(self):
        l, planted = generate_alt_estable(
            AdversaryParams(n=5, D=2, seed=31, r_sr_target=5), tail="sparse"
        )
        horizon = max(l.default_horizon(), planted.deadline + 1)
        assert check_alt_estable(l, 2, horizon) is not None
        assert check_estable(l, 2) is None


# SHA-256 over seeds 1..3 of each lasso's JSON followed by its certificate's
# JSON, keyed by (generator, n, D).  "spurious" pins r_gst = r_sr = 3D + 7, so
# every seed has room to plant the early root.
GENERATOR_DIGESTS = {
    ("estable", 2, 1): "bf62e3330eccf133a34ffa954bea39cb777655b62f620fcce78e50b1c4788441",
    ("single", 2, 1): "54d939389d554d6a8c376ab0c3e329875abd5bf59fb623a6460916ba1c648587",
    ("sparse", 2, 1): "5165378592c1ff7e34eb841436afe05db85ed1b4effe7a5647d117785cd0af8c",
    ("spurious", 2, 1): "35e470a1f44ce54068cc26b8f77ad7bfd95d9dd198bbcaa3f566af4d1ccdfe77",
    ("estable", 3, 2): "0464305491da99963b061f55cc1bc3180f358b406bebcba6681bcdc17a856666",
    ("single", 3, 2): "d45964d625af778d3cb736601cc5cf3d0f6754f32967970335677c76b4d9d322",
    ("sparse", 3, 2): "cca884dc2ef8c71e3ba7a4a6d2cbd3c15eb8eccea58d624ae6dd83208e74d292",
    ("spurious", 3, 2): "e39ed23969e5cf09c62420077bbb18b81953241720b877bd58db215881cb4990",
    ("estable", 6, 1): "aa69348eed5ce9f91401424e33a496e36910da4bf96d12b5761ac31663f29765",
    ("single", 6, 1): "202fe2a047da2bc2f53791adfd84e92c326f38df5f151b85597d7b4323fae0f6",
    ("sparse", 6, 1): "ded6036143c169d293a43d33ec05bfaf82f634cdc82c9522369074972621ef3c",
    ("spurious", 6, 1): "af473aadbc35e01e03bf399a2ca63993e8d442e651db4db8e82654dfab4b977a",
    ("estable", 16, 3): "4bd0a43234bb004dd788f51149a4b442e02199c13e6ee290cf910f54e502b9ff",
    ("single", 16, 3): "d1cdd88b26ad0ae7a6235ae21f03f79116b1e4459249a7a7f6c12d8da5649d2d",
    ("sparse", 16, 3): "e0f9622a5fc2d08d25cf7a5b335810b3c780fcc3d4ed353f530c8612db4a587e",
    ("spurious", 16, 3): "bf8b1d27b88b9849f169b77d4f09a53a83fa73ffd041f7286585d8e1d7ac574e",
    ("estable", 24, 2): "88fa50a7e3f1d903cbfe119114d27f9079ede65048fdc9aa74a105dbba0a90d1",
    ("single", 24, 2): "ca602f0bfc5bed239a322f75c317d020a448449b1bd0a20a0c063bbdd6b2d8d5",
    ("sparse", 24, 2): "1ec8a4795052929b50e1c09d32c1ae8f5a23dbab15455511eb1886f725ecdb35",
    ("spurious", 24, 2): "06cba2eba11fb00f414f4b0b7ad970a24632019bfb44bcc84c41ffaf2a5a6262",
    ("estable", 64, 3): "528a8c8d05b84c4db59883b15059bd677ae9fd562ee09de1ec121b61e8352f2a",
    ("single", 64, 3): "3a66585ce4b5d776c4b5b65c76fb572987a89305b7cacea1ae710209cfe9f07d",
    ("sparse", 64, 3): "7dc31cb6267730870c6af367a7038b5ab6089e416c59fc718c11aefde4b1c77e",
    ("spurious", 64, 3): "ef983f34bbddff8bf6a7222c9d807e40163c4b1c5cc3b0d810199aa2308ef2fc",
}


@pytest.mark.parametrize("kind, n, D", sorted(GENERATOR_DIGESTS))
def test_generator_output_is_pinned(kind, n, D):
    # the generators draw from their rngs in a fixed order: any change to the
    # draws, the graphs built from them or the checker's verdict moves a digest
    digest = hashlib.sha256()
    for seed in (1, 2, 3):
        r = 3 * D + 7 if kind == "spurious" else None
        params = AdversaryParams(n=n, D=D, seed=seed, r_gst_target=r, r_sr_target=r)
        if kind == "estable":
            l, cert = generate_estable(params)
        elif kind == "spurious":
            l, cert = generate_alt_estable(params, spurious=True)
            assert cert.params["spurious"] is not None
        else:
            l, cert = generate_alt_estable(params, tail=kind)
        digest.update(lasso_to_json(l).encode())
        digest.update(json.dumps(cert.to_json_dict(), sort_keys=True).encode())
    assert digest.hexdigest() == GENERATOR_DIGESTS[kind, n, D]


@st.composite
def root_families(draw):
    """(n, disjoint root sets over 1..n, at least one of them non-empty)."""
    n = draw(st.integers(2, 64))
    labels = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))  # 0: no root; i: in set i
    sets = [frozenset(p for p in range(1, n + 1) if labels[p - 1] == i) for i in (1, 2, 3)]
    return n, [s for s in sets if s] or [frozenset([1])]


class TestDraws:
    """The generators draw from ``getrandbits`` directly; every draw must be
    the one ``random.Random``'s public methods make, and leave the rng in the
    same state."""

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**64), size=st.integers(1, 1024), low=st.integers(-50, 50))
    @example(seed=0, size=1, low=0)  # one bit drawn, and drawn again while it is 1
    @example(seed=7, size=1024, low=1)  # a power of two: 11 bits, half the draws rejected
    @example(seed=7, size=1023, low=1)
    def test_below_is_choice_randint_and_shuffle(self, seed, size, low):
        std, own = random.Random(seed), random.Random(seed)
        seq = list(range(size))
        assert std.choice(seq) == seq[_below(own, size)]
        assert std.randint(low, low + size - 1) == low + _below(own, size)
        shuffled = seq[:]
        for i in range(size - 1, 0, -1):
            j = _below(own, i + 1)
            shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
        std.shuffle(seq)
        assert shuffled == seq
        assert own.getstate() == std.getstate()

    def test_an_empty_range_raises(self):
        # getrandbits(0) is 0, so drawing below 0 would loop forever
        rng = random.Random(1)
        with pytest.raises(IndexError):
            _below(rng, 0)
        with pytest.raises(IndexError):
            _single_rooted_graph(rng, 3, frozenset(), 2)
        with pytest.raises(IndexError):
            _multi_rooted_graph(rng, 3, [])

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**64), case=root_families(), D=st.integers(1, 3))
    @example(seed=3, case=(64, [frozenset(range(1, 33))]), D=2)  # 32 members, 32 outside
    def test_graph_builders_draw_as_the_stdlib(self, seed, case, D):
        n, root_sets = case
        std, own = random.Random(seed), random.Random(seed)
        assert _single_rooted_graph(own, n, root_sets[0], D) == reference_single_rooted_graph(std, n, root_sets[0], D)
        assert _multi_rooted_graph(own, n, root_sets) == reference_multi_rooted_graph(std, n, root_sets)
        assert own.getstate() == std.getstate()

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**64),
        n=st.integers(1, 12),
        min_roots=st.integers(1, 2),
        sets=st.lists(st.frozensets(st.integers(1, 12), min_size=1, max_size=3), max_size=6),
        singletons=st.booleans(),
    )
    @example(seed=5, n=16, min_roots=2, sets=[], singletons=True)  # doomed: every family starts with a singleton
    @example(seed=5, n=2, min_roots=1, sets=[], singletons=True)  # not doomed: {1, 2} may be drawn
    def test_family_sampling_is_the_32_attempt_loop(self, seed, n, min_roots, sets, singletons):
        forbidden = {s for s in sets if max(s) <= n}
        if singletons:
            forbidden |= {frozenset([p]) for p in range(1, n + 1)}
        std, own = random.Random(seed), random.Random(seed)
        family = _sample_root_family(own, n, forbidden, min_roots)
        assert family == reference_sample_root_family(std, n, forbidden, min_roots)
        if family is not None:
            assert own.getstate() == std.getstate()
        elif singletons and min_roots > 1:
            assert own.getstate() == random.Random(seed).getstate()  # given up before any draw


class TestRootTable:
    def test_one_fill_per_lasso(self, monkeypatch):
        # certify-shaped lassos (n 12..16, D 3..5, r_sr 28..32), half estable
        # and half alt_estable, each checked by all three shorthands
        lassos = []
        for i in range(100):
            params = AdversaryParams(n=12 + i % 5, D=3 + i % 3, seed=i, r_sr_target=28 + i % 5)
            l, cert = (generate_estable if i % 2 == 0 else generate_alt_estable)(params)
            horizon = max(l.default_horizon(), cert.deadline + 1)
            lassos.append((LassoSequence(l.prefix, l.cycle), params.D, horizon))  # a fresh lasso, table unfilled
        fill = LassoSequence.__dict__["root_table"]
        filled, real = [], fill.fn
        monkeypatch.setattr(fill, "fn", lambda l: filled.append(l) or real(l))
        for i, (l, D, horizon) in enumerate(lassos):
            certs = [check_estable(l, D), check_alt_estable(l, D, horizon), check_mad(l, D, D, D, horizon)]
            assert certs[i % 2] is not None
        assert [id(l) for l in filled] == [id(l) for l, _, _ in lassos]


def unrolled(l, k):
    """Same infinite sequence, with k extra cycle copies moved into the prefix."""
    from rootcons.graphs import LassoSequence

    return LassoSequence(tuple(l.prefix) + tuple(l.cycle) * k, tuple(l.cycle))


class TestLassoEncodingInvariance:
    """Checkers decide properties of the infinite sequence, so re-rolling the
    lasso encoding must never change their answers."""

    def _random_pool(self):
        from conftest import random_lasso

        rng = random.Random(1001)
        pool = []
        for _ in range(25):
            n = rng.randint(2, 5)
            pool.append((random_lasso(rng, n, rng.randint(1, 6)), rng.randint(1, n - 1)))
        for _ in range(25):
            n = rng.randint(2, 7)
            D = rng.randint(1, min(3, n - 1))
            l, _ = generate_estable(
                AdversaryParams(n=n, D=D, seed=rng.getrandbits(40), r_sr_target=rng.randint(1, 8))
            )
            pool.append((l, D))
        return pool

    def test_liveness_and_estable_invariant(self):
        for l, D in self._random_pool():
            for k in (1, 2):
                u = unrolled(l, k)
                assert check_liveness(l) == check_liveness(u)
                a, b = check_estable(l, D), check_estable(u, D)
                assert a == b

    def test_safety_witness_invariant(self):
        for l, D in self._random_pool():
            u = unrolled(l, 2)
            assert diagnose("safety", l, {"x": D}).witness == diagnose("safety", u, {"x": D}).witness

    def test_alt_estable_invariant(self):
        for l, D in self._random_pool():
            u = unrolled(l, 2)
            horizon = max(l.default_horizon(), u.default_horizon())
            assert check_alt_estable(l, D, horizon) == check_alt_estable(u, D, horizon)


class TestRunEnumeration:
    def test_runs_match_direct_evaluation(self):
        from conftest import random_lasso
        from rootcons.graphs import root_components as roots

        rng = random.Random(2002)
        for _ in range(60):
            l = random_lasso(rng, rng.randint(2, 5), rng.randint(0, 5))
            deep = len(l.prefix) + 4 * len(l.cycle) + 2
            for run in maximal_root_runs(l, len(l.prefix) + 2 * len(l.cycle) + 1):
                assert run.root in roots(l.graph(run.start))
                if run.start > 1:
                    assert run.root not in roots(l.graph(run.start - 1))
                if run.end is None:
                    for r in range(run.start, deep + 1):
                        assert run.root in roots(l.graph(r))
                else:
                    for r in range(run.start, run.end + 1):
                        assert run.root in roots(l.graph(r))
                    assert run.root not in roots(l.graph(run.end + 1))


class TestCertificateSerialization:
    def test_json_shape(self, eps2_lasso):
        cert = check_estable(eps2_lasso, 2)
        data = cert.to_json_dict()
        assert json.loads(json.dumps(data)) == data
        assert data["root"] == [4]

    def test_monotone_reappearances_enforced(self):
        with pytest.raises(ValueError):
            AdversaryCertificate("alt_estable", 1, 2, frozenset([1]), reappearances=(5, 4))

    def test_r_sr_lower_bound_enforced(self):
        with pytest.raises(ValueError):
            AdversaryCertificate("estable", 3, 2, frozenset([1]))

    def test_reappearance_inside_the_single_phase_rejected(self):
        # the single phase of r_sr = 4 and D = 2 ends at round 6
        with pytest.raises(ValueError, match="first reappearance 6 must follow the single phase ending at 6"):
            AdversaryCertificate("alt_estable", 1, 4, frozenset([1]), reappearances=(6, 8), params={"D": 2})
        cert = AdversaryCertificate("alt_estable", 1, 4, frozenset([1]), reappearances=(7, 8), params={"D": 2})
        assert cert.deadline == 8
