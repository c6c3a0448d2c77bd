import random

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import EPS2_GP, EPS2_GPP, EPS2_GPPP, random_graph, random_lasso
from oracles import (
    brute_force_roots,
    causal_past_forward,
    naive_causal_past,
    reference_embedded_single_phase,
    reference_liveness,
    reference_root_runs,
    reference_single_rooted_rounds,
    tarjan_roots,
    undirected_bfs_spans,
)

from rootcons.adversary import (
    AdversaryParams,
    _embedded_single_phase,
    check_liveness,
    generate_alt_estable,
    generate_estable,
)
from rootcons.graphs import (
    CommGraph,
    LassoSequence,
    Run,
    _forward_reach,
    causal_past,
    check_dynamic_diameter,
    graph_to_dot,
    lasso,
    lasso_from_json,
    lasso_to_json,
    mask_layout,
    maximal_root_runs,
    root_components,
    single_rooted_rounds,
    validate_graph,
)


def roots_sorted(g):
    return sorted(sorted(r) for r in root_components(g))


def single_root(l, a, b):
    """The R with roots == {R} in every round a..b, found via single_rooted_rounds."""
    for root, rounds in single_rooted_rounds(l, b).items():
        if set(range(a, b + 1)) <= set(rounds):
            return root
    return None


class TestValidateGraph:
    def test_minimal_legal_graph(self):
        assert validate_graph(CommGraph.of(1)) == []

    def test_missing_self_loop_reported(self):
        g = CommGraph(2, mask_layout(2).bit(1, 1))
        assert validate_graph(g) == ["missing self-loop (2->2)"]

    def test_eps1_graph_is_valid(self, eps1_lasso):
        assert validate_graph(eps1_lasso.graph(1)) == []

    def test_out_of_range_endpoint(self):
        lay = mask_layout(2)
        g = CommGraph(2, lay.bit(1, 1) | lay.bit(2, 2) | lay.bit(3, 1))
        assert validate_graph(g) == ["endpoint out of range (3->1)"]


@st.composite
def wide_graphs(draw):
    """(n, edge list) for n in 17..48: edge masks of widths 32 and 64."""
    n = draw(st.integers(17, 48))
    pair = st.tuples(st.integers(1, n), st.integers(1, n))
    return n, draw(st.lists(pair, max_size=3 * n))


class TestRootComponents:
    def test_single_node(self):
        assert roots_sorted(CommGraph.of(1)) == [[1]]

    def test_eps1_single_root(self, eps1_lasso):
        assert roots_sorted(eps1_lasso.graph(1)) == [[1]]

    def test_eps2_early_rounds_two_roots(self, eps2_lasso):
        assert roots_sorted(eps2_lasso.graph(1)) == [[1], [3]]

    def test_matches_brute_force_on_random_graphs(self):
        rng = random.Random(1234)
        for _ in range(300):
            n = rng.randint(1, 6)
            g = random_graph(rng, n, rng.uniform(0.05, 0.6))
            assert root_components(g) == brute_force_roots(g)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_at_least_one_root_and_single_implies_weakly_connected(self, data):
        n = data.draw(st.integers(1, 6))
        pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
        picked = data.draw(st.lists(st.sampled_from(pairs), max_size=12) if pairs else st.just([]))
        g = CommGraph.of(n, picked)
        roots = root_components(g)
        assert len(roots) >= 1
        if len(roots) == 1:
            assert undirected_bfs_spans(g)

    @settings(max_examples=150, deadline=None)
    @given(case=wide_graphs())
    @example(case=(17, [(17, 1), (1, 17)]))  # the first and last sizes of widths 32 and 64
    @example(case=(32, [(32, 1), (1, 32)]))
    @example(case=(33, [(33, 1), (1, 33)]))
    @example(case=(48, [(48, 1), (1, 48)]))
    def test_matches_tarjan_past_width_sixteen(self, case):
        n, edges = case
        g = CommGraph.of(n, edges)
        assert root_components(g) == tarjan_roots(g)

    def test_cached_roots_stay_out_of_identity(self, eps2_lasso):
        g = eps2_lasso.graph(1)
        fresh = CommGraph(g.n, g.mask)
        root_components(g)
        assert g == fresh and hash(g) == hash(fresh)
        assert repr(g) == f"CommGraph(n={g.n}, mask={g.mask!r})"


@st.composite
def edge_lists(draw):
    """(n, edges) for n in 1..64: edges over 1..n, loops and repeats allowed."""
    n = draw(st.integers(1, 64))
    pair = st.tuples(st.integers(1, n), st.integers(1, n))
    return n, draw(st.lists(pair, max_size=3 * n))


class TestMaskIdentity:
    @settings(max_examples=150, deadline=None)
    @given(case=edge_lists())
    def test_graph_is_its_mask(self, case):
        n, edges = case
        lay = mask_layout(n)
        loops = {(p, p) for p in range(1, n + 1)}
        g = CommGraph.of(n, edges)
        built = CommGraph(n, sum(lay.bit(u, v) for u, v in set(edges) | loops))
        assert g == built and hash(g) == hash(built)
        assert set(lay.edges(g.mask)) == set(edges) | loops
        assert g.nonloop_edges() == sorted(e for e in set(edges) if e[0] != e[1])
        # the derived views stay out of ==, hash and repr
        fresh = CommGraph(n, g.mask)
        root_components(g), g.relays, g.in_classes
        assert {"_roots", "relays", "in_classes"} <= set(vars(g))
        assert g == fresh and hash(g) == hash(fresh) and not set(vars(fresh)) - {"n", "mask"}
        assert repr(g) == repr(fresh) == f"CommGraph(n={n}, mask={g.mask!r})"


class TestRelays:
    @settings(max_examples=150, deadline=None)
    @given(case=edge_lists())
    @example(case=(1024, [(1, v) for v in range(2, 1025)] + [(1024, 3), (512, 1)]))  # W=1024: three relaying rows
    def test_relays_are_the_rows_with_a_nonloop_out_edge(self, case):
        n, edges = case
        heard = set(edges) | {(u, u) for u in range(1, n + 1)}
        rows = [sum(1 << (v - 1) for v in range(1, n + 1) if (u, v) in heard) for u in range(1, n + 1)]
        want = tuple((u - 1, row) for u, row in enumerate(rows, 1) if row != 1 << (u - 1))
        assert CommGraph.of(n, edges).relays == want

    def test_forward_reach_equals_the_all_rows_product(self):
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randint(2, 9)
            l = random_lasso(rng, n, rng.randint(0, 5), density=rng.choice([0.05, 0.2, 0.5]))
            lay = mask_layout(n)
            start = sum(lay.bit(q, q) for q in range(1, n + 1) if rng.random() < 0.6)
            a = rng.randint(0, 6)
            b = a + rng.randint(0, 6)
            want = start
            for r in range(a + 1, b + 1):
                step = want
                for k in range(n):  # every row, self-loop-only rows too
                    step |= (want >> k & lay.column) * (l.graph(r).mask >> k * lay.width & lay.row)
                want = step
            assert _forward_reach(l, start, a, b, lay.column) == want


@st.composite
def looped_masks(draw):
    """(n, mask) for n in 1..64 holding every self-loop.  Each process draws
    one of k in-neighbour sets and also hears every process that drew the
    same one, so columns repeat often, as they do in a root whose members
    all hear each other."""
    n = draw(st.integers(1, 64))
    k = draw(st.integers(1, n))
    sets = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=k, max_size=k))
    drawn = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    lay, mask = mask_layout(n), 0
    for p in range(1, n + 1):
        column = sets[drawn[p - 1]] | sum(1 << (q - 1) for q in range(1, n + 1) if drawn[q - 1] == drawn[p - 1])
        mask |= sum(lay.bit(u, p) for u in range(1, n + 1) if column >> (u - 1) & 1)
    return n, mask


class TestInClasses:
    @settings(max_examples=200, deadline=None)
    @given(case=looped_masks())
    @example(case=(63, mask_layout(63).loops(63)))  # every column its own
    @example(case=(5, mask_layout(5).block(5)))  # one column for all
    def test_classes_partition_the_processes_by_column(self, case):
        n, mask = case
        lay, classes = mask_layout(n), CommGraph(n, mask).in_classes
        pids = [p for _, members in classes for p in members]
        assert sorted(pids) == list(range(1, n + 1))
        assert all(list(members) == sorted(members) for _, members in classes)
        firsts = [members[0] for _, members in classes]
        assert firsts == sorted(firsts)
        for ins, members in classes:
            for p in members:
                assert ins == tuple(u for u in range(1, n + 1) if mask & lay.bit(u, p)), p
        assert len({ins for ins, _ in classes}) == len(classes)


SEAM = lasso(3, prefix=[[(1, 2)], [(1, 2), (1, 3)]], cycle=[[(1, 2), (1, 3)], [(2, 1), (2, 3)]])


@st.composite
def scanned_lassos(draw):
    """(lasso, scan bound, least run length): a ``random_lasso`` with its
    cycle grown to one to four graphs, a bound from its prefix length to two
    cycles past its default horizon, and a least length of 1..4."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    n, density = draw(st.integers(2, 6)), draw(st.sampled_from([0.1, 0.3, 0.6]))
    l = random_lasso(rng, n, draw(st.integers(0, 6)), density)
    l = LassoSequence(l.prefix, l.cycle + tuple(random_graph(rng, n, density) for _ in range(draw(st.integers(0, 3)))))
    s = draw(st.integers(len(l.prefix), l.default_horizon() + 2 * len(l.cycle)))
    return l, s, draw(st.integers(1, 4))


class TestCommonRootIntervals:
    def test_eps1_static_window(self, eps1_lasso):
        runs = maximal_root_runs(eps1_lasso, 10)
        assert [(sorted(run.root), run.start, run.end) for run in runs] == [([1], 1, None)]

    def test_eps2_window_1_to_6(self, eps2_lasso):
        runs = maximal_root_runs(eps2_lasso, 6)
        assert [(sorted(run.root), run.start, run.end) for run in runs] == [
            ([1], 1, 2),
            ([3], 1, 2),
            ([1, 2, 5], 3, 4),
            ([4], 3, None),
        ]

    def test_never_a_root_is_absent(self, eps2_lasso):
        runs = maximal_root_runs(eps2_lasso, 6)
        assert frozenset([5]) not in {run.root for run in runs}

    def test_matches_per_round_merge_oracle(self):
        # runs starting by round 8, evaluated one cycle pass further: a run
        # still open there covers every cycle graph, so it lasts forever
        rng = random.Random(5)
        for _ in range(50):
            l = random_lasso(rng, rng.randint(2, 5), 6)
            last = 8 + len(l.cycle) + 1
            per_round = {r: root_components(l.graph(r)) for r in range(1, last + 1)}
            expected = set()
            for root in {root for roots in per_round.values() for root in roots}:
                r = 1
                while r <= 8:
                    if root in per_round[r]:
                        start = r
                        while r <= last and root in per_round[r]:
                            r += 1
                        expected.add((root, start, None if r > last else r - 1))
                    r += 1
            got = {(run.root, run.start, run.end) for run in maximal_root_runs(l, 8)}
            assert got == expected

    @settings(max_examples=200, deadline=None)
    @given(case=scanned_lassos())
    @example(case=(lasso(3, prefix=[[(2, 1)]], cycle=[[(1, 2), (1, 3)], [(1, 3)]]), 1, 1))  # {1} roots every cycle graph
    @example(case=(lasso(3, prefix=[[(2, 1)]], cycle=[[(1, 2), (1, 3)], [(1, 3)]]), 1, 4))
    @example(case=(SEAM, 2, 1))  # {1}'s run crosses the prefix/cycle seam
    @example(case=(SEAM, 2, 3))
    @example(case=(SEAM, 9, 2))
    def test_matches_the_round_by_round_walk(self, case):
        l, s, least = case
        want = [run for run in reference_root_runs(l, s) if run.end is None or run.end - run.start + 1 >= least]
        assert maximal_root_runs(l, s, least) == want
        assert single_rooted_rounds(l, s) == reference_single_rooted_rounds(l, s)

    def test_scan_must_cover_prefix(self, eps2_lasso):
        with pytest.raises(ValueError):
            maximal_root_runs(eps2_lasso, 3)


class TestSingleRoot:
    def test_eps1_rounds_1_to_5(self, eps1_lasso):
        assert single_root(eps1_lasso, 1, 5) == frozenset([1])

    def test_eps2_rounds_1_to_2_none(self, eps2_lasso):
        assert single_root(eps2_lasso, 1, 2) is None

    def test_eps2_rounds_5_to_9(self, eps2_lasso):
        assert single_root(eps2_lasso, 5, 9) == frozenset([4])


class TestEcsCommonRoot:
    def test_eps2_window_3_to_9(self, eps2_lasso):
        (run,) = [run for run in maximal_root_runs(eps2_lasso, 9) if run.root == frozenset([4])]
        assert (run.start, run.end) == (3, None)
        assert _embedded_single_phase(eps2_lasso, run, 2, 9) == 5  # single in rounds 5..7

    def test_degenerate_x_zero(self, eps1_lasso):
        run = Run(frozenset([1]), 4, 4)
        assert _embedded_single_phase(eps1_lasso, run, 0, 4) == 4

    def test_no_long_single_phase_is_none(self, eps2_lasso):
        # rounds 1..4 never have a single root
        for run in maximal_root_runs(eps2_lasso, 4):
            assert _embedded_single_phase(eps2_lasso, run, 1, 4) is None


EPS2 = lasso(5, prefix=[EPS2_GP, EPS2_GP, EPS2_GPP, EPS2_GPP], cycle=[EPS2_GPPP])  # the eps2_lasso fixture


class TestRootTableReads:
    """The liveness root and the embedded single phases, read from the
    lasso's root table, against the same facts walked round by round."""

    @settings(max_examples=200, deadline=None)
    @given(case=scanned_lassos(), x=st.integers(0, 3))
    @example(case=(EPS2, 9, 1), x=2)  # {4} common from 3, single from 5 on
    @example(case=(SEAM, 9, 1), x=0)
    def test_matches_the_round_by_round_walk(self, case, x):
        l, s, _ = case
        cert = check_liveness(l)
        assert (cert and (cert.r_gst, cert.r_sr, cert.root)) == reference_liveness(l)
        for run in maximal_root_runs(l, s):
            assert _embedded_single_phase(l, run, x, s) == reference_embedded_single_phase(l, run, x, s)


class TestCausalPast:
    def test_base_case(self, eps2_lasso):
        for p in range(1, 6):
            assert causal_past(eps2_lasso, p, 3, 3) == frozenset({p})

    def test_eps2_hand_unrolled(self, eps2_lasso):
        assert causal_past(eps2_lasso, 2, 0, 2) == frozenset({1, 2, 5})
        assert causal_past(eps2_lasso, 2, 0, 2) == naive_causal_past(eps2_lasso.graph, 2, 0, 2)

    def test_monotone_in_lower_bound(self):
        rng = random.Random(41)
        for _ in range(60):
            n = rng.randint(2, 6)
            l = random_lasso(rng, n, 6)
            p = rng.randint(1, n)
            b = rng.randint(1, 8)
            prev = frozenset({p})
            for a in range(b, -1, -1):
                cur = causal_past(l, p, a, b)
                assert cur >= prev
                prev = cur

    def test_backward_equals_forward_and_naive(self):
        rng = random.Random(42)
        for _ in range(120):
            n = rng.randint(2, 6)
            l = random_lasso(rng, n, 7)
            p = rng.randint(1, n)
            b = rng.randint(1, 9)
            a = rng.randint(0, b)
            back = causal_past(l, p, a, b)
            assert back == causal_past_forward(l, p, a, b)
            assert back == naive_causal_past(l.graph, p, a, b)

    def test_invalid_interval_raises(self, eps1_lasso):
        with pytest.raises(ValueError):
            causal_past(eps1_lasso, 1, 4, 3)
        for p, a in ((0, 0), (eps1_lasso.n + 1, 0), (1, -1)):
            with pytest.raises(ValueError):
                causal_past(eps1_lasso, p, a, 3)


class TestInfluences:
    def test_self_influence(self, eps1_lasso):
        assert 3 in causal_past(eps1_lasso, 3, 2, 2)

    def test_eps2_p3_never_reaches_p2_early(self, eps2_lasso):
        assert 3 not in causal_past(eps2_lasso, 2, 0, 4)

    def test_influence_persists(self):
        rng = random.Random(43)
        for _ in range(60):
            n = rng.randint(2, 5)
            l = random_lasso(rng, n, 6)
            q, p = rng.randint(1, n), rng.randint(1, n)
            r = rng.randint(0, 5)
            r2 = rng.randint(r + 1, 7)
            if q in causal_past(l, p, r, r2):
                assert q in causal_past(l, p, r, r2 + 1)
                assert q in causal_past(l, p, r, r2 + 2)


class TestEndToEndPropagation:
    def test_n_minus_1_single_rooted_rounds_spread_the_root(self):
        # after n-1 (not necessarily consecutive) R-single-rooted rounds,
        # R is in everyone's causal past
        rng = random.Random(44)
        found = 0
        while found < 30:
            n = rng.randint(2, 6)
            l = random_lasso(rng, n, 10, density=rng.uniform(0.2, 0.7))
            singles = {}
            for r in range(1, 13):
                roots = root_components(l.graph(r))
                if len(roots) == 1:
                    (root,) = roots
                    singles.setdefault(root, []).append(r)
            for root, rounds in singles.items():
                if len(rounds) < n - 1:
                    continue
                found += 1
                picks = sorted(rng.sample(rounds, n - 1))
                for p in range(1, n + 1):
                    assert root <= causal_past(l, p, picks[0] - 1, picks[-1])


def naive_diameter_witness(l, D, horizon):
    """The first (root, rounds, process) violating dynamic diameter D, in the
    order check_dynamic_diameter reports it, from Tarjan roots and the
    literal recursive causal past; None if the guarantee holds."""
    singles = {}
    for r in range(1, horizon + 1):
        roots = tarjan_roots(l.graph(r))
        if len(roots) == 1:
            singles.setdefault(next(iter(roots)), []).append(r)
    for root, rounds in sorted(singles.items(), key=lambda kv: sorted(kv[0])):
        for i in range(len(rounds) - D + 1):
            r1, rd = rounds[i], rounds[i + D - 1]
            pasts = [naive_causal_past(l.graph, p, r1 - 1, rd) for p in range(1, l.n + 1)]
            for q in sorted(root):
                missing = [p for p, past in enumerate(pasts, start=1) if q not in past]
                if missing:
                    return root, tuple(rounds[i : i + D]), missing[0]
    return None


class TestDynamicDiameter:
    def test_eps1_diameter_two(self, eps1_lasso):
        assert check_dynamic_diameter(eps1_lasso, 2, horizon=10) is None

    def test_eps2_diameter_two(self, eps2_lasso):
        assert check_dynamic_diameter(eps2_lasso, 2, horizon=12) is None

    def test_rotating_head_violates_small_diameter(self):
        from rootcons.harness import scenario_hop_fallacy

        l = scenario_hop_fallacy(5)
        witness = check_dynamic_diameter(l, 2, horizon=10)
        assert witness is not None
        assert witness.root == frozenset([1])
        assert not (witness.root <= causal_past(l, witness.process, witness.rounds[0] - 1, witness.rounds[-1]))

    def test_matches_naive_causal_past_at_24_processes(self):
        # certified lassos (no witness) and deep random trees below a fixed
        # root (a witness), against the definition evaluated with the oracles
        rng = random.Random(24)
        outcomes = set()
        for i in range(8):
            D = 2 + i % 2
            if i % 2 == 0:
                l, cert = generate_estable(AdversaryParams(n=24, D=D, seed=i, r_sr_target=6))
                horizon = cert.r_sr + 8
            else:
                # each vertex hangs off one of the last four placed before it
                root = list(range(1, 2 + i % 3))
                trees = []
                for _ in range(6):
                    order = root + rng.sample(range(len(root) + 1, 25), 24 - len(root))
                    edges = list(zip(root, root[1:] + root[:1]))
                    edges += [(rng.choice(order[max(0, j - 4) : j]), order[j]) for j in range(len(root), 24)]
                    trees.append(CommGraph.of(24, edges))
                l, horizon = LassoSequence(tuple(trees[:-1]), tuple(trees[-1:])), 8
            expected = naive_diameter_witness(l, D, horizon)
            got = check_dynamic_diameter(l, D, horizon)
            assert (got and (got.root, got.rounds, got.process)) == expected
            outcomes.add(expected is None)
        assert outcomes == {True, False}

    def test_matches_naive_when_windows_lie_in_the_cycle(self):
        # A window starting past the prefix repeats every cycle, and only the
        # first window of each cycle phase is checked: the witness must still
        # be the one the naive scan over every window reports first.  Sparse
        # alt_estable tails have one single-rooted round per cycle, so their
        # windows span several cycle passes.  The random lassos draw each
        # round as an out-tree below root {1} or {2}, or as an edgeless graph,
        # so both roots recur across the prefix and every cycle phase, and a
        # window's reach depends on the depths of its trees.
        rng = random.Random(5)
        lassos = []
        for seed in range(4):
            params = AdversaryParams(n=4 + seed % 3, D=1 + seed % 2, seed=seed)
            lassos.append(generate_alt_estable(params, tail="sparse").lasso)

        def tree_or_edgeless(n):
            if rng.random() < 0.2:
                return CommGraph.of(n)
            order = [rng.choice([1, 2])]
            order += rng.sample([p for p in range(1, n + 1) if p != order[0]], n - 1)
            return CommGraph.of(n, [(rng.choice(order[:j]), order[j]) for j in range(1, n)])

        # the prefix's last round and the cycle's last round share root {1}:
        # only the cycle's window fails
        lassos.append(lasso(4, prefix=[[(1, 2), (1, 3), (1, 4)]], cycle=[[], [(1, 2), (2, 3), (3, 4)]]))
        for _ in range(12):
            n = rng.randint(4, 6)
            prefix = [tree_or_edgeless(n) for _ in range(rng.randint(0, 3))]
            cycle = [tree_or_edgeless(n) for _ in range(rng.randint(2, 4))]
            lassos.append(LassoSequence(tuple(prefix), tuple(cycle)))
        found = set()  # None, or for a witness in the cycle: does its window span a cycle pass?
        for l in lassos:
            P, C = len(l.prefix), len(l.cycle)
            for horizon in range(max(1, P), P + 5 * C + 1):
                for D in range(1, l.n):
                    expected = naive_diameter_witness(l, D, horizon)
                    got = check_dynamic_diameter(l, D, horizon)
                    assert (got and (got.root, got.rounds, got.process)) == expected, (l, D, horizon)
                    if expected is None:
                        found.add(None)
                    elif expected[1][0] > P:
                        found.add(expected[1][-1] - expected[1][0] >= C)
        assert found == {None, False, True}

    def test_each_cycle_phase_reaches_once(self, eps2_lasso, monkeypatch):
        # eps2: a 4-round prefix, then one graph forever; to any horizon,
        # only windows starting in the prefix or at its first cycle round
        # are derived
        import rootcons.graphs as graphs_mod

        calls = []
        real = graphs_mod._forward_reach
        monkeypatch.setattr(graphs_mod, "_forward_reach", lambda *args: calls.append(args[2]) or real(*args))
        assert check_dynamic_diameter(eps2_lasso, 2, horizon=200) is None
        assert calls and max(calls) <= len(eps2_lasso.prefix)  # r_1 - 1 <= P

    def test_no_horizon_scans_to_the_default_horizon(self, eps1_lasso, eps2_lasso):
        from rootcons.harness import scenario_hop_fallacy

        got = []
        for l in (eps1_lasso, eps2_lasso, scenario_hop_fallacy(5)):
            got.append(check_dynamic_diameter(l, 2))
            assert got[-1] == check_dynamic_diameter(l, 2, l.default_horizon())
        assert [w is None for w in got] == [True, True, False]

    def test_d_out_of_range_raises(self, eps1_lasso):
        with pytest.raises(ValueError):
            check_dynamic_diameter(eps1_lasso, 0)
        with pytest.raises(ValueError):
            check_dynamic_diameter(eps1_lasso, 5)


class TestLassoPlumbing:
    def test_round_indexing(self, eps2_lasso):
        assert eps2_lasso.graph(1) == eps2_lasso.graph(2)
        assert eps2_lasso.graph(5) == eps2_lasso.graph(9)
        assert eps2_lasso.graph(3) != eps2_lasso.graph(2)
        with pytest.raises(ValueError):
            eps2_lasso.graph(0)

    def test_empty_cycle_rejected(self):
        with pytest.raises(ValueError):
            LassoSequence((), ())

    def test_graphs_over_different_process_counts_rejected(self):
        with pytest.raises(ValueError, match="same process count"):
            LassoSequence((CommGraph(2, mask_layout(2).loops(2)),), (CommGraph(3, mask_layout(3).loops(3)),))

    def test_mask_layout_past_the_process_bound_rejected(self):
        with pytest.raises(ValueError, match="n must be <= 1024, got 1025"):
            mask_layout(1025)

    def test_json_round_trip(self, eps2_lasso):
        text = lasso_to_json(eps2_lasso)
        back = lasso_from_json(text)
        assert back == eps2_lasso
        assert lasso_to_json(back) == text

    def test_json_implies_self_loops(self):
        l = lasso_from_json('{"n": 2, "prefix": [], "cycle": [[[1, 2]]]}')
        assert (2, 2) in mask_layout(2).edges(l.graph(1).mask)

    def test_json_rejects_bad_n(self):
        with pytest.raises(ValueError):
            lasso_from_json('{"n": 0, "cycle": [[]]}')

    def test_dot_marks_root_members(self, eps1_lasso):
        dot = graph_to_dot(eps1_lasso.graph(1))
        assert "p1 [shape=doublecircle" in dot
        assert "p2 [shape=circle" in dot
        assert "p1 -> p5;" in dot
