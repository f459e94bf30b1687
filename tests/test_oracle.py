"""The exhaustive oracle: enumeration, brute-force extrema, family search."""

import json
import math
from itertools import combinations

import pytest

from fanspec import (
    EnumerationCapError,
    FanSpec,
    Graph,
    brute_force_extremal,
    brute_force_f_report,
    canonical_form,
    chvatal_hanson_f,
    contains_fan,
    enumerate_graphs,
    family_search,
    from_graph6,
    g0_candidates,
    matching_number,
    spectral_radius,
    to_graph6,
    turan_graph,
    turan_number_t,
    verify_main_theorem,
)
import fanspec.canon as canon
import fanspec.oracle as oracle
from fanspec.canon import canonical_info, orbits_from_perms, permuted_rows
from fanspec.families import embed_in_part
from fanspec.oracle import (
    _bounded_pred,
    _children_of_parent_aug,
    _lambda_floor_sq,
    _levels,
    _mask_orbit_reps,
    _part_size_vectors,
    _walk_bound,
)


def all_labeled_graphs(n):
    pairs = list(combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield Graph(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])


def children_by_last_label(rows, pred):
    """The plain acceptance rule, kept as a slow oracle: label every child
    (no invariant filter) and take as deletion vertex the one whose
    canonical label is n - 1."""
    parent = Graph._from_rows_unchecked(rows)
    n = parent.n
    out = []
    for mask in _mask_orbit_reps(n, canonical_info(parent).aut_generators, 0):
        child = parent.add_vertex(mask)
        if pred is not None and not pred(child):
            continue
        cinfo = canonical_info(child)
        if cinfo.orbits[cinfo.perm.index(n)] == cinfo.orbits[n]:
            out.append(permuted_rows(child.rows, cinfo.perm))
    return out


def levels_by_last_label(n_max, pred=None):
    level = [()]
    yield 0, level
    for size in range(1, n_max + 1):
        level = sorted(c for rows in level for c in children_by_last_label(rows, pred))
        yield size, level


def count_labelings(monkeypatch):
    """Count canonical labelings made through either module's binding, as
    the benchmark's tracer does: canonical_form labels through
    canon.canonical_info, so each labeling counts once."""
    calls = [0]
    real = canon.canonical_info

    def counting(g):
        calls[0] += 1
        return real(g)

    monkeypatch.setattr(canon, "canonical_info", counting)
    monkeypatch.setattr(oracle, "canonical_info", counting)
    return calls


class TestEnumeration:
    def test_known_counts(self):
        expect = {0: 1, 1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156}
        for n, cnt in expect.items():
            assert sum(1 for _ in enumerate_graphs(n)) == cnt

    def test_n6_against_labeled_dedup(self):
        forms = {canonical_form(g).rows for g in all_labeled_graphs(6)}
        assert len(forms) == 156
        assert {g.rows for g in enumerate_graphs(6)} == forms

    def test_representatives_are_canonical_and_distinct(self):
        seen = set()
        for g in enumerate_graphs(5):
            assert canonical_form(g) == g
            assert g.rows not in seen
            seen.add(g.rows)

    def test_cap(self):
        with pytest.raises(EnumerationCapError):
            list(enumerate_graphs(11))
        with pytest.raises(EnumerationCapError):
            list(enumerate_graphs(4, cap=3))
        assert sum(1 for _ in enumerate_graphs(4, cap=4)) == 11

    def test_augmentation_level_count_n8(self):
        # the largest level the suite enumerates in full; the known class
        # count (OEIS A000088) pins the acceptance rule end to end
        assert sum(1 for _ in enumerate_graphs(8)) == 12346

    @pytest.mark.parametrize("beta,delta", [(1, 1), (2, 2), (3, 3)])
    def test_predicate_levels_against_labeled_dedup(self, beta, delta):
        # augmentation restricted to a hereditary class must give exactly
        # one representative of every class member: compare with a filter
        # over all labeled graphs followed by canonical dedup
        pred = _bounded_pred(beta, delta)
        for size, level in _levels(6, pred):
            forms = {
                canonical_form(g).rows for g in all_labeled_graphs(size) if pred(g)
            }
            assert [rows for rows, _ in level] == sorted(forms), (size, beta, delta)

    @pytest.mark.parametrize("bounds", [None, (1, 1), (2, 2), (3, 3)])
    def test_invariant_filter_keeps_every_level(self, bounds):
        # the invariant-filtered rule and the plain one pick different
        # parents for a class, but must store the same canonical rows
        pred = None if bounds is None else _bounded_pred(*bounds)
        fast = [(size, [rows for rows, _ in level]) for size, level in _levels(7, pred)]
        slow = list(levels_by_last_label(7, pred))
        assert fast == slow, bounds

    def test_invariant_filter_labels_few_children(self, monkeypatch):
        # a count, not a timing: it moves only if the filter is lost or
        # changed.  Without the filter _levels(7) makes 5,968 labelings.
        calls = count_labelings(monkeypatch)
        for _ in _levels(7):
            pass
        assert calls[0] == 1307

    @pytest.mark.parametrize("bounds", [None, (2, 2), (3, 3)])
    def test_unlabeled_children_are_the_next_level(self, bounds):
        # the last-level scans read each parent's children as built, most of
        # them unlabeled; canonicalized, they must be exactly the next level,
        # both as stored and as the plain rule finds it
        pred = None if bounds is None else _bounded_pred(*bounds)
        levels = [level for _, level in _levels(7, pred)]
        slow = [level for _, level in levels_by_last_label(7, pred)]
        unlabeled = 0
        for size, parents in enumerate(levels[:-1]):
            children = [c for parent in parents for c in _children_of_parent_aug(parent, pred)]
            unlabeled += sum(info is None for _, info in children)
            forms = sorted(canonical_form(Graph._from_rows_unchecked(rows)).rows for rows, _ in children)
            assert forms == [rows for rows, _ in levels[size + 1]] == slow[size + 1], (size, bounds)
        assert unlabeled > 0

    @pytest.mark.parametrize("bounds", [None, (3, 3)])
    def test_carried_generators_give_the_orbits(self, bounds):
        # each class's generators are carried from its acceptance labeling
        # into the canonical frame; they must be automorphisms of the stored
        # rows and give the orbits of labeling those rows afresh
        pred = None if bounds is None else _bounded_pred(*bounds)
        for size, level in _levels(7, pred):
            for rows, gens in level:
                assert all(permuted_rows(rows, b) == rows for b in gens)
                orbits = canonical_info(Graph._from_rows_unchecked(rows)).orbits
                assert tuple(orbits_from_perms(size, list(gens))) == orbits, rows


class TestBruteForceExtremal:
    def test_triangle_free_n5_edges(self):
        rep = brute_force_extremal(5, (1, 3), "edges")
        assert rep.best_value == 6
        assert rep.graphs_examined == 34
        assert to_graph6(canonical_form(turan_graph(5, 2))) in rep.witnesses

    def test_triangle_free_n5_lambda(self):
        rep = brute_force_extremal(5, (1, 3), "lambda")
        assert rep.best_value == pytest.approx(math.sqrt(6), abs=1e-8)
        assert rep.witnesses == (to_graph6(canonical_form(turan_graph(5, 2))),)

    def test_bowtie_free_n5_edges(self):
        # frozen from this oracle: three extremal classes at 7 = floor(25/4)+1
        rep = brute_force_extremal(5, (2, 3), "edges")
        assert rep.best_value == 7
        assert rep.witnesses == ("DF{", "DJ{", "DNw")
        assert rep.matches_formula is True

    def test_turan_theorem_small(self):
        for n in range(4, 8):
            for r in (2, 3):
                rep = brute_force_extremal(n, (1, r + 1), "edges")
                assert rep.best_value == turan_number_t(n, r), (n, r)
                assert to_graph6(canonical_form(turan_graph(n, r))) in rep.witnesses

    def test_witnesses_refree_and_achieve(self):
        rep = brute_force_extremal(6, (2, 3), "edges")
        for w in rep.witnesses:
            g = from_graph6(w)
            assert g.n == 6
            assert contains_fan(g, (2, 3)) is None
            assert g.edge_count == rep.best_value

    def test_lambda_witnesses_within_window(self):
        rep = brute_force_extremal(5, (2, 3), "lambda")
        for w in rep.witnesses:
            lam = spectral_radius(from_graph6(w)).lam
            assert lam >= rep.best_value - 1e-8

    def test_jobs_do_not_change_report(self):
        a = brute_force_extremal(6, (1, 3), "edges", jobs=1).to_json(timing=False)
        b = brute_force_extremal(6, (1, 3), "edges", jobs=2).to_json(timing=False)
        assert a == b

    def test_star_spec_r2(self):
        rep = brute_force_extremal(5, (2, 2), "edges")
        # max degree <= 1 means a matching: 2 edges on 5 vertices
        assert rep.best_value == 2
        assert rep.formula_value is None and rep.matches_formula is None

    def test_labels_only_what_acceptance_and_witnesses_need(self, monkeypatch):
        # a count, not a timing: the last level's children whose new vertex
        # alone has the top invariant go unlabeled, and the merge labels only
        # the witnesses it reports
        calls = count_labelings(monkeypatch)
        brute_force_extremal(7, (2, 3), "lambda")
        assert calls[0] == 638

    def test_checkpoint_resume(self, tmp_path, monkeypatch):
        import fanspec.oracle as om

        clean = brute_force_extremal(6, (1, 3), "edges").to_json(timing=False)
        ckpt = str(tmp_path / "state.json")
        real = om._scan_extremal_parent
        calls = {"n": 0}

        def explode_after_one(*args, **kwargs):
            if calls["n"] >= 1:
                raise KeyboardInterrupt
            calls["n"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(om, "_scan_extremal_parent", explode_after_one)
        with pytest.raises(KeyboardInterrupt):
            brute_force_extremal(
                6, (1, 3), "edges", checkpoint_path=ckpt, checkpoint_every=1
            )
        monkeypatch.setattr(om, "_scan_extremal_parent", real)
        state = json.load(open(ckpt))
        assert state["parent_cursor"] == 1
        resumed = brute_force_extremal(
            6, (1, 3), "edges", checkpoint_path=ckpt, resume=True
        ).to_json(timing=False)
        assert resumed == clean

    def test_checkpointed_pool_takes_one_parent_a_chunk(self, tmp_path, monkeypatch):
        # imap hands back a whole chunk at once, so a save could follow
        # only a chunk's last parent; one parent a chunk keeps a kill from
        # losing more than the parents in flight
        import multiprocessing.pool

        real = multiprocessing.pool.Pool.imap
        sizes = []

        def spy(pool, fn, tasks, chunksize=1):
            sizes.append(chunksize)
            return real(pool, fn, tasks, chunksize)

        monkeypatch.setattr(multiprocessing.pool.Pool, "imap", spy)
        clean = brute_force_extremal(6, (1, 3), "edges").to_json(timing=False)
        ckpt = str(tmp_path / "state.json")
        rep = brute_force_extremal(
            6, (1, 3), "edges", jobs=2, checkpoint_path=ckpt, checkpoint_every=1
        )
        assert sizes == [1]
        assert rep.to_json(timing=False) == clean
        assert json.load(open(ckpt))["parent_cursor"] == 34  # every class on 5 vertices

    def test_checkpoint_survives_a_failed_write(self, tmp_path, monkeypatch):
        import fanspec.oracle as om

        clean = brute_force_extremal(6, (1, 3), "edges").to_json(timing=False)
        ckpt = tmp_path / "state.json"
        real_dump = json.dump
        calls = {"n": 0}

        def die_halfway_through_second(obj, fh, **kw):
            calls["n"] += 1
            if calls["n"] == 2:
                text = json.dumps(obj)
                fh.write(text[: len(text) // 2])
                raise KeyboardInterrupt
            real_dump(obj, fh, **kw)

        monkeypatch.setattr(om.json, "dump", die_halfway_through_second)
        with pytest.raises(KeyboardInterrupt):
            brute_force_extremal(
                6, (1, 3), "edges", checkpoint_path=str(ckpt), checkpoint_every=1
            )
        monkeypatch.setattr(om.json, "dump", real_dump)
        # the first checkpoint is intact and no partial file is left beside it
        assert [p.name for p in tmp_path.iterdir()] == ["state.json"]
        assert json.loads(ckpt.read_text())["parent_cursor"] == 1
        resumed = brute_force_extremal(
            6, (1, 3), "edges", checkpoint_path=str(ckpt), resume=True
        ).to_json(timing=False)
        assert resumed == clean

    def test_checkpoint_rejects_other_tol(self, tmp_path):
        ckpt = str(tmp_path / "state.json")
        first = brute_force_extremal(
            6, (1, 3), "lambda", tol=1e-10, checkpoint_path=ckpt, checkpoint_every=1
        ).to_json(timing=False)
        with pytest.raises(ValueError):
            brute_force_extremal(
                6, (1, 3), "lambda", tol=1e-9, checkpoint_path=ckpt, resume=True
            )
        again = brute_force_extremal(
            6, (1, 3), "lambda", tol=1e-10, checkpoint_path=ckpt, resume=True
        ).to_json(timing=False)
        assert again == first

    def test_checkpoint_every_validated(self, tmp_path):
        ckpt = str(tmp_path / "state.json")
        for every in (0, -3):
            with pytest.raises(ValueError):
                brute_force_extremal(5, (1, 3), "edges", checkpoint_path=ckpt, checkpoint_every=every)
        with pytest.raises(ValueError):
            brute_force_extremal(5, (1, 3), "edges", checkpoint_every=5)
        assert not (tmp_path / "state.json").exists()

    def test_bad_tol_rejected_before_enumeration(self, monkeypatch):
        def enumerate_nothing(*args, **kwargs):
            raise AssertionError("enumerated before checking tol")

        monkeypatch.setattr(oracle, "_levels", enumerate_nothing)
        monkeypatch.setattr(oracle, "g0_candidates", enumerate_nothing)
        for tol in (-1.0, 0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                brute_force_extremal(8, (2, 3), "lambda", tol=tol)
            with pytest.raises(ValueError):
                family_search(450, (3, 3), tol=tol)
            with pytest.raises(ValueError):
                verify_main_theorem(8, (2, 3), tol=tol)

    def test_checkpoint_mismatch_rejected(self, tmp_path):
        ckpt = tmp_path / "state.json"
        ckpt.write_text(
            json.dumps(
                {
                    "kind": "brute",
                    "n": 5,
                    "k": 9,
                    "r": 3,
                    "mode": "edges",
                    "batch_cursor": 1,
                    "examined": 0,
                    "free": 0,
                    "best": None,
                    "cands": [],
                }
            )
        )
        with pytest.raises(ValueError):
            brute_force_extremal(5, (1, 3), "edges", checkpoint_path=str(ckpt), resume=True)

    def test_checkpoint_of_another_acceptance_rule_rejected(self, tmp_path):
        # under the plain rule (deletion vertex labeled n - 1) other parent
        # batches emit some classes, so its batch cursor cannot be resumed
        ckpt = tmp_path / "state.json"
        brute_force_extremal(
            6, (1, 3), "edges", checkpoint_path=str(ckpt), checkpoint_every=1
        )
        state = json.loads(ckpt.read_text())
        del state["deletion_vertex"]
        ckpt.write_text(json.dumps(state))
        with pytest.raises(ValueError):
            brute_force_extremal(6, (1, 3), "edges", checkpoint_path=str(ckpt), resume=True)


def scan_solving_every_child(parent, spec, mode, tol, floor_sq):
    """The brute worker without the walk bound: every fan-free child is
    scored, as before the bound, whatever floor_sq says."""
    children = _children_of_parent_aug(parent, None)
    scored = []
    for crows, _ in children:
        g = Graph._from_rows_unchecked(crows)
        if contains_fan(g, spec) is None:
            value = g.edge_count if mode == "edges" else spectral_radius(g, tol=tol).lam
            scored.append((value, crows))
    return len(children), len(scored), scored


def interrupt_after(monkeypatch, worker, parents):
    """Run `worker` as the brute worker for `parents` parents, then raise
    KeyboardInterrupt, as a kill mid-run would."""
    calls = [0]

    def scan(*args, **kwargs):
        if calls[0] >= parents:
            raise KeyboardInterrupt
        calls[0] += 1
        return worker(*args, **kwargs)

    monkeypatch.setattr(oracle, "_scan_extremal_parent", scan)


class TestWalkBound:
    """`brute` skips the λ solve of a child whose walk bound W (the largest
    row sum of A²) puts √W below the Turán floor; the reports stay those of
    solving every fan-free child."""

    def test_bounds_the_spectral_radius(self):
        hypothesis = pytest.importorskip("hypothesis")
        np = pytest.importorskip("numpy")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=300, deadline=None, database=None)
        @hypothesis.given(data=st.data())
        def bounded(data):
            n = data.draw(st.integers(1, 10))
            pairs = list(combinations(range(n), 2))
            bits = data.draw(st.integers(0, (1 << len(pairs)) - 1))
            g = Graph(n, [e for i, e in enumerate(pairs) if bits >> i & 1])
            adj = np.array([[g.has_edge(u, v) for v in range(n)] for u in range(n)], float)
            assert math.sqrt(_walk_bound(g.rows)) >= np.linalg.eigvalsh(adj).max() - 1e-12

        bounded()

    def test_turan_class_is_never_skipped(self):
        for r in range(2, 6):
            for n in range(1, 11):
                rows = turan_graph(n, r - 1).rows
                for tol in (1e-10, 1e-6):
                    floor_sq = _lambda_floor_sq(n, FanSpec(1, r), tol)
                    assert _walk_bound(rows) >= floor_sq, (n, r, tol)
                    if r >= 3 and n >= r:
                        lam = spectral_radius(turan_graph(n, r - 1)).lam
                        assert 0 < floor_sq < lam * lam

    @pytest.mark.parametrize(
        "spec, n_max", [((1, 3), 7), ((2, 3), 8), ((3, 3), 7), ((2, 4), 7), ((1, 4), 7)]
    )
    def test_reports_match_solving_every_child(self, spec, n_max, monkeypatch):
        pruned_worker = oracle._scan_extremal_parent
        for n in range(1, n_max + 1):
            for mode in ("edges", "lambda"):
                monkeypatch.setattr(oracle, "_scan_extremal_parent", scan_solving_every_child)
                ref = brute_force_extremal(n, spec, mode).to_json(timing=False)
                monkeypatch.setattr(oracle, "_scan_extremal_parent", pruned_worker)
                for jobs in (1, 2):
                    rep = brute_force_extremal(n, spec, mode, jobs=jobs)
                    assert rep.to_json(timing=False) == ref, (n, mode, jobs)

    def test_solves_only_what_can_reach_the_floor(self, monkeypatch):
        # a count, not a timing: 77 of the 400 fan-free classes on 7
        # vertices have a walk bound at or above λ(T(7, 2))²
        calls = [0]
        real = oracle.spectral_radius

        def counting(*args, **kwargs):
            calls[0] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(oracle, "spectral_radius", counting)
        rep = brute_force_extremal(7, (2, 3), "lambda", jobs=1)
        assert (rep.free_count, calls[0]) == (400, 77)

    def test_full_solve_checkpoint_resumes_under_the_bound(self, tmp_path, monkeypatch):
        pruned_worker = oracle._scan_extremal_parent
        clean = brute_force_extremal(7, (2, 3), "lambda").to_json(timing=False)
        states = []
        for worker in (scan_solving_every_child, pruned_worker):
            ckpt = str(tmp_path / f"{len(states)}.json")
            interrupt_after(monkeypatch, worker, 60)
            with pytest.raises(KeyboardInterrupt):
                brute_force_extremal(
                    7, (2, 3), "lambda", checkpoint_path=ckpt, checkpoint_every=1
                )
            with open(ckpt) as fh:
                states.append(fh.read())
        # both workers write the same checkpoint, byte for byte
        assert states[0] == states[1]
        assert json.loads(states[0])["parent_cursor"] == 60
        monkeypatch.setattr(oracle, "_scan_extremal_parent", pruned_worker)
        resumed = brute_force_extremal(
            7, (2, 3), "lambda", checkpoint_path=str(tmp_path / "0.json"), resume=True
        )
        assert resumed.to_json(timing=False) == clean


class TestBruteForceF:
    def test_examples(self):
        assert brute_force_f_report(1, 1, 4).value == 1
        assert brute_force_f_report(2, 2, 6).value == 6
        assert brute_force_f_report(0, 3, 5).value == 0

    def test_matches_formula_small(self):
        for beta in (1, 2):
            for delta in (1, 2):
                assert brute_force_f_report(beta, delta, 7).value == chvatal_hanson_f(beta, delta)

    def test_jobs_do_not_change_report(self):
        for n_max in (0, 1, 2, 8):
            a = brute_force_f_report(2, 3, n_max, jobs=1).to_json(timing=False)
            b = brute_force_f_report(2, 3, n_max, jobs=2).to_json(timing=False)
            assert a == b, n_max
        # the empty graph alone, then one and two vertices
        examined = [brute_force_f_report(2, 3, m).graphs_examined for m in (0, 1, 2)]
        assert examined == [1, 2, 4]

    def test_cap(self):
        with pytest.raises(EnumerationCapError):
            brute_force_f_report(2, 2, 11)


class TestG0Candidates:
    def test_k1_only_empty(self):
        cands = g0_candidates(1)
        assert len(cands) == 1 and cands[0].graph.n == 0

    def test_k2_empty_and_single_edge(self):
        cands = g0_candidates(2)
        assert len(cands) == 2
        assert cands[1].graph.edge_count == 1

    def test_k3_all_bounded_no_isolated(self):
        cands = g0_candidates(3)
        assert len(cands) == 14
        for c in cands[1:]:
            assert min(c.graph.degrees()) >= 1
            assert c.max_degree <= 2
            assert c.matching <= 2
            assert matching_number(c.graph) == c.matching
        # the double triangle is among them
        two_k3 = canonical_form(
            Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
        )
        assert any(c.graph == two_k3 for c in cands)


class TestPartSizeVectors:
    def test_balanced_and_spread(self):
        assert _part_size_vectors(8, 2, 2) == [(5, 3), (4, 4)]
        assert _part_size_vectors(9, 3, 1) == [(3, 3, 3)]
        vecs = _part_size_vectors(10, 3, 2)
        assert (4, 3, 3) in vecs and (4, 4, 2) in vecs
        for v in vecs:
            assert sum(v) == 10 and v[0] - v[-1] <= 2


class TestFamilySearch:
    def test_balanced_bipartite_wins_triangle_free(self):
        rep = family_search(60, (1, 3), 2)
        assert rep.best_value == pytest.approx(30.0, abs=1e-9)
        assert rep.winner["part_sizes"] == [30, 30]
        assert from_graph6(rep.witnesses[0]) == turan_graph(60, 2)

    def test_bowtie_family_at_20(self):
        rep = family_search(20, (2, 3))
        assert rep.winner["edges"] == 101
        assert rep.matches_formula is True
        assert rep.free_count == rep.graphs_examined  # everything in-family is free here

    def test_balance_wins_at_200(self):
        rep = family_search(200, (2, 3), 1)
        assert rep.winner["part_sizes"] == [100, 100]
        assert rep.winner["edges"] == 10001

    def test_reports_at_n64(self):
        # members with at most 64 vertices are dense graphs; the dense
        # search took 95 s for (3,4) here before it ran on twin classes.
        # The witness is the winning member itself, written as graph6.
        for spec, examined, sizes, g0, host, edges, lam in (
            ((2, 4), 12, [22, 21, 21], "A_", 1, 1366, 42.6920573981),
            ((3, 4), 84, [22, 21, 21], "EJaG", 1, 1371, 42.8570085244),
        ):
            rep = family_search(64, spec)
            assert rep.graphs_examined == rep.free_count == examined
            assert rep.winner == {
                "part_sizes": sizes,
                "g0_graph6": g0,
                "host_part": host,
                "edges": edges,
                "lambda": pytest.approx(lam, abs=1e-10),
            }
            (witness,) = rep.witnesses
            member = embed_in_part(sizes, host, from_graph6(g0).edges())
            assert isinstance(member, Graph)
            assert from_graph6(witness) == member

    def test_equal_part_ties_go_to_the_key(self):
        # members that differ only in which of several equal parts hosts g0
        # are isomorphic and get bit-identical lambda, so the explicit key
        # (lowest host) decides these ties, not rounding
        for n, spec in ((20, (2, 5)), (40, (2, 5)), (40, (3, 3))):
            assert family_search(n, spec).winner["host_part"] == 0

    def test_jobs_match(self):
        a = family_search(30, (2, 3), jobs=1).to_json(timing=False)
        b = family_search(30, (2, 3), jobs=2).to_json(timing=False)
        assert a == b

    def test_r2_rejected(self):
        with pytest.raises(ValueError):
            family_search(20, (2, 2))


class TestVerifyMainTheorem:
    def test_small_triangle_free(self):
        for n in (6, 7):
            rep = verify_main_theorem(n, (1, 3))
            assert rep.agrees
            assert rep.brute_force_agrees is True

    def test_triangle_free_agrees_through_12(self):
        # family-level agreement at every order; the exhaustive cross-check
        # stays below the (lowered) cap to keep this quick
        for n in range(6, 13):
            assert verify_main_theorem(n, (1, 3), cap=7).agrees

    def test_n7_bowtie_reports_brute(self):
        rep = verify_main_theorem(7, (2, 3))
        assert rep.agrees
        # below every validity threshold: reported as data, not asserted
        assert rep.brute_force_agrees is not None
        assert rep.brute_best_edges == 13

    def test_threshold_disagreement_at_26(self):
        # below the threshold the family winner can miss the closed form:
        # (3,3) at n = 26 has a 174-edge winner against 175, and n = 27 agrees
        rep = verify_main_theorem(26, (3, 3))
        assert rep.agrees is False
        assert (rep.family_winner_edges, rep.formula_edges) == (174, 175)
        assert verify_main_theorem(27, (3, 3)).agrees is True

    def test_above_cap_skips_brute(self):
        rep = verify_main_theorem(20, (2, 3))
        assert rep.agrees
        assert rep.brute_force_agrees is None
