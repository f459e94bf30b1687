"""The exhaustive oracle: enumeration, brute-force extrema, family search."""

import errno
import json
import math
import os
import subprocess
import sys
import time
from functools import partial
from itertools import combinations

import pytest

from fanspec import cli
from fanspec import (
    EnumerationCapError,
    FanSpec,
    Graph,
    balanced_sizes,
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
    multipartite_spectral_radius,
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
from fanspec.formulas import graph_count
from fanspec.patterns import fan_free_through_last
from fanspec.spectral import exact_spectral_radius
from fanspec.oracle import (
    DEFAULT_ENUM_CAP,
    _bounded_pred,
    _children_of_parent_aug,
    _family_members,
    _levels,
    _mask_orbit_reps,
    _member_edges,
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


def fan_free_pred(spec):
    """The predicate of `brute`'s walk for spec."""
    return partial(fan_free_through_last, spec=FanSpec(*spec))


def fan_free_levels(n_max, spec):
    """The levels that `brute` walks for spec: its fan-free classes."""
    return _levels(n_max, fan_free_pred(spec))


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

    def test_lambda_witnesses_score_the_best_exactly(self):
        for spec in ((2, 3), (3, 3), (2, 4)):
            rep = brute_force_extremal(7, spec, "lambda")
            assert rep.witnesses, spec
            for w in rep.witnesses:
                assert exact_spectral_radius(from_graph6(w)) == rep.best_value, (spec, w)

    def test_a_near_tie_is_no_witness(self, monkeypatch):
        # a class one ulp below the best is not a witness, in either order
        top, below = turan_graph(5, 2), from_graph6("DF{")
        best = exact_spectral_radius(top)
        near = math.nextafter(best, 0)
        for planted in ([(best, top.rows), (near, below.rows)],
                        [(near, below.rows), (best, top.rows)]):
            calls = []

            def stub(parent, **kwargs):
                scored = [] if calls else planted
                calls.append(parent)
                return len(scored), scored

            monkeypatch.setattr(oracle, "_scan_extremal_parent", stub)
            rep = brute_force_extremal(5, (1, 3), "lambda")
            assert rep.best_value == best
            assert rep.witnesses == (to_graph6(canonical_form(top)),)

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
        # alone has the top invariant go unlabeled, the merge labels only
        # the witnesses it reports, and the walk labels no class that holds
        # a fan (638 labelings when it built every class)
        calls = count_labelings(monkeypatch)
        brute_force_extremal(7, (2, 3), "lambda")
        assert calls[0] == 328

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

        monkeypatch.setattr(om, "CHECKPOINT_CLASSES", 1)
        monkeypatch.setattr(om, "_scan_extremal_parent", explode_after_one)
        with pytest.raises(KeyboardInterrupt):
            brute_force_extremal(6, (1, 3), "edges", checkpoint_path=ckpt)
        monkeypatch.setattr(om, "_scan_extremal_parent", real)
        state = json.load(open(ckpt))
        assert state["parent_cursor"] == 1
        resumed = brute_force_extremal(6, (1, 3), "edges", checkpoint_path=ckpt).to_json(
            timing=False
        )
        assert resumed == clean

    def test_checkpoint_can_follow_every_parent_at_two_jobs(self, tmp_path, monkeypatch):
        # results arrive one parent at a time at every job count, so a save
        # can follow any parent that builds a class, and a kill loses only
        # what the workers finished ahead of the merge
        real = oracle._write_json_atomic
        cursors = []

        def record(path, state):
            cursors.append(state["parent_cursor"])
            real(path, state)

        monkeypatch.setattr(oracle, "_write_json_atomic", record)
        monkeypatch.setattr(oracle, "CHECKPOINT_CLASSES", 1)
        clean = brute_force_extremal(6, (1, 3), "edges").to_json(timing=False)
        ckpt = str(tmp_path / "state.json")
        rep = brute_force_extremal(6, (1, 3), "edges", jobs=2, checkpoint_path=ckpt)
        # the 14 triangle-free classes on 5 vertices; the 13th has no
        # triangle-free child that the acceptance rule gives it
        *_, (_, parents) = fan_free_levels(5, (1, 3))
        built = [len(_children_of_parent_aug(p, fan_free_pred((1, 3)))) for p in parents]
        assert cursors == [c for c, count in enumerate(built, 1) if count] == [*range(1, 13), 14]
        assert rep.to_json(timing=False) == clean
        with open(ckpt) as fh:
            assert json.load(fh)["parent_cursor"] == 14

    def test_a_failed_save_at_two_jobs_leaves_no_child(self, tmp_path, monkeypatch):
        # the error's traceback holds the merge's frame, and with it the map
        def refuse(path, state):
            raise OSError("disk full")

        monkeypatch.setattr(oracle, "_write_json_atomic", refuse)
        monkeypatch.setattr(oracle, "CHECKPOINT_CLASSES", 1)
        ckpt = str(tmp_path / "state.json")
        with pytest.raises(OSError) as info:
            brute_force_extremal(6, (1, 3), "edges", jobs=2, checkpoint_path=ckpt)
        assert info.value.args == ("disk full",) and no_child_left()

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
        monkeypatch.setattr(om, "CHECKPOINT_CLASSES", 1)
        with pytest.raises(KeyboardInterrupt):
            brute_force_extremal(6, (1, 3), "edges", checkpoint_path=str(ckpt))
        monkeypatch.setattr(om.json, "dump", real_dump)
        # the first checkpoint is intact and no partial file is left beside it
        assert [p.name for p in tmp_path.iterdir()] == ["state.json"]
        assert json.loads(ckpt.read_text())["parent_cursor"] == 1
        resumed = brute_force_extremal(6, (1, 3), "edges", checkpoint_path=str(ckpt)).to_json(
            timing=False
        )
        assert resumed == clean

    def test_checkpoint_in_the_tol_format_rejected(self, tmp_path, monkeypatch):
        # the format before exact ties: `tol` in the key, and the witness
        # window as (graph6, value) pairs
        monkeypatch.setattr(oracle, "CHECKPOINT_CLASSES", 1)
        ckpt = tmp_path / "state.json"
        first = brute_force_extremal(6, (1, 3), "lambda", checkpoint_path=str(ckpt)).to_json(
            timing=False
        )
        state = json.loads(ckpt.read_text())
        pairs = [[s, state["best"]] for s in state["cands"]]
        ckpt.write_text(json.dumps({**state, "tol": 1e-10, "cands": pairs}))
        with pytest.raises(ValueError, match="does not match"):
            brute_force_extremal(6, (1, 3), "lambda", checkpoint_path=str(ckpt))
        ckpt.write_text(json.dumps(state))
        again = brute_force_extremal(6, (1, 3), "lambda", checkpoint_path=str(ckpt)).to_json(
            timing=False
        )
        assert again == first

    def test_missing_checkpoint_directory_rejected_before_enumeration(
        self, tmp_path, monkeypatch
    ):
        # found at the first save it would cost the work before it, and a
        # run with fewer classes than CHECKPOINT_CLASSES would never save
        def enumerate_nothing(*args, **kwargs):
            raise AssertionError("enumerated before checking the checkpoint path")

        monkeypatch.setattr(oracle, "_levels", enumerate_nothing)
        ckpt = str(tmp_path / "missing" / "state.json")
        with pytest.raises(ValueError, match="does not exist"):
            brute_force_extremal(5, (2, 3), "edges", checkpoint_path=ckpt)
        assert not (tmp_path / "missing").exists()

    def test_bad_tol_rejected_before_enumeration(self, monkeypatch):
        # the searches solve at the default tol and take none: any tol, even
        # a valid one, is a TypeError before anything is enumerated
        def enumerate_nothing(*args, **kwargs):
            raise AssertionError("enumerated before rejecting tol")

        monkeypatch.setattr(oracle, "_levels", enumerate_nothing)
        monkeypatch.setattr(oracle, "g0_candidates", enumerate_nothing)
        for tol in (-1.0, float("nan"), 1e-10):
            with pytest.raises(TypeError):
                family_search(450, (3, 3), tol=tol)
            with pytest.raises(TypeError):
                verify_main_theorem(8, (2, 3), tol=tol)

    def test_family_settings_are_not_parameters(self, monkeypatch):
        # the family's imbalance is MAX_IMBALANCE and g0's enumeration cap
        # DEFAULT_ENUM_CAP, so a family or verify report depends on n, k and
        # r alone: passing either is a TypeError before anything is built
        def enumerate_nothing(*args, **kwargs):
            raise AssertionError("enumerated before rejecting the arguments")

        monkeypatch.setattr(oracle, "_levels", enumerate_nothing)
        monkeypatch.setattr(oracle, "g0_candidates", enumerate_nothing)
        assert oracle.MAX_IMBALANCE == 2
        for call in (
            lambda: family_search(200, (2, 3), 2),
            lambda: family_search(200, (2, 3), max_imbalance=2),
            lambda: family_search(200, (2, 3), cap=10),
            lambda: verify_main_theorem(8, (2, 3), 2),
            lambda: verify_main_theorem(8, (2, 3), max_imbalance=2),
            lambda: verify_main_theorem(8, (2, 3), cap=10),
            lambda: oracle._family_members(200, FanSpec(2, 3), 2, DEFAULT_ENUM_CAP),
        ):
            with pytest.raises(TypeError):
                call()
        monkeypatch.undo()
        with pytest.raises(TypeError):
            g0_candidates(3, cap=10)

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
            brute_force_extremal(5, (1, 3), "edges", checkpoint_path=str(ckpt))

    def test_checkpoint_best_too_large_for_a_float_is_read(self, tmp_path):
        # an int is finite however large, and converting it for math.isfinite
        # would raise OverflowError, a traceback at the command line
        ckpt = tmp_path / "state.json"
        parents = list(fan_free_levels(4, (1, 3)))[4][1]
        state = {
            "kind": "brute", "n": 5, "k": 1, "r": 3, "mode": "edges",
            "deletion_vertex": "max-invariant", "walk": "fan-free",
            "parent_cursor": len(parents), "free": 14,
            "best": 10**400, "cands": ["D??"],
        }
        ckpt.write_text(json.dumps(state))
        rep = brute_force_extremal(5, (1, 3), "edges", checkpoint_path=str(ckpt))
        assert (rep.best_value, rep.witnesses) == (10**400, ("D??",))

    def test_checkpoint_of_another_acceptance_rule_rejected(self, tmp_path, monkeypatch):
        # under the plain rule (deletion vertex labeled n - 1) other parent
        # batches emit some classes, so its batch cursor cannot be resumed
        monkeypatch.setattr(oracle, "CHECKPOINT_CLASSES", 1)
        ckpt = tmp_path / "state.json"
        brute_force_extremal(6, (1, 3), "edges", checkpoint_path=str(ckpt))
        state = json.loads(ckpt.read_text())
        del state["deletion_vertex"]
        ckpt.write_text(json.dumps(state))
        with pytest.raises(ValueError):
            brute_force_extremal(6, (1, 3), "edges", checkpoint_path=str(ckpt))

    # a checkpoint of `brute --n 7 --k 2 --r 3 --mode lambda` written by the
    # walk over all classes: its cursor counts all 156 classes on 6 vertices
    ALL_CLASS_CHECKPOINT = (
        '{"kind": "brute", "n": 7, "k": 2, "r": 3, "mode": "lambda", '
        '"deletion_vertex": "max-invariant", "parent_cursor": 77, "examined": 705, '
        '"free": 350, "best": 3.7015621187164243, "cands": ["F?B~w"]}'
    )

    def test_an_all_class_checkpoint_is_exit_2_and_kept(self, tmp_path, capsys, monkeypatch):
        # resumed, its cursor would skip 77 of the 98 fan-free parents; it is
        # rejected before any enumeration, and never written over
        def enumerate_nothing(*args, **kwargs):
            raise AssertionError("enumerated before checking the checkpoint")

        monkeypatch.setattr(oracle, "_levels", enumerate_nothing)
        monkeypatch.setattr(oracle, "CHECKPOINT_CLASSES", 1)
        ckpt = tmp_path / "state.json"
        ckpt.write_text(self.ALL_CLASS_CHECKPOINT)
        argv = ["brute", "--n", "7", "--k", "2", "--r", "3", "--mode", "lambda",
                "--checkpoint", str(ckpt)]
        for jobs in ("1", "2"):
            assert cli.main([*argv, "--jobs", jobs]) == 2
            out, err = capsys.readouterr()
            assert out == "" and "does not match" in err
            assert ckpt.read_text() == self.ALL_CLASS_CHECKPOINT
        assert [p.name for p in tmp_path.iterdir()] == ["state.json"]

    def test_a_matching_checkpoint_resumes_by_itself(self, tmp_path, monkeypatch):
        # the file at the checkpoint path is the run's own: the scan takes
        # only the parents after its cursor, and the report is the clean one
        clean = brute_force_extremal(6, (1, 3), "edges").to_json(timing=False)
        states = []
        real_write = oracle._write_json_atomic
        monkeypatch.setattr(oracle, "CHECKPOINT_CLASSES", 1)
        monkeypatch.setattr(oracle, "_write_json_atomic", lambda path, obj: states.append(obj))
        ckpt = tmp_path / "state.json"
        brute_force_extremal(6, (1, 3), "edges", checkpoint_path=str(ckpt))
        monkeypatch.setattr(oracle, "_write_json_atomic", real_write)
        assert states[9]["parent_cursor"] == 10
        ckpt.write_text(json.dumps(states[9]))
        tasks = []
        real_map = oracle._map

        def spy(fn, parents, jobs):
            tasks.extend(parents)
            return real_map(fn, parents, jobs)

        monkeypatch.setattr(oracle, "_map", spy)
        rep = brute_force_extremal(6, (1, 3), "edges", checkpoint_path=str(ckpt))
        assert tasks == list(fan_free_levels(5, (1, 3)))[5][1][10:]
        assert rep.to_json(timing=False) == clean

    def test_a_foreign_checkpoint_is_rejected_unread_by_the_levels_and_kept(
        self, tmp_path, monkeypatch
    ):
        # another run's file, or one that is not a checkpoint, is an error
        # before any enumeration, and the run never writes over it
        def enumerate_nothing(*args, **kwargs):
            raise AssertionError("enumerated before checking the checkpoint")

        monkeypatch.setattr(oracle, "_levels", enumerate_nothing)
        own = {
            "kind": "brute", "n": 5, "k": 1, "r": 3, "mode": "edges",
            "deletion_vertex": "max-invariant", "walk": "fan-free",
            "parent_cursor": 0, "free": 0, "best": None, "cands": [],
        }
        ckpt = tmp_path / "state.json"
        for text in (
            json.dumps({**own, "k": 2}),
            json.dumps({**own, "mode": "lambda"}),
            json.dumps({**own, "free": -5}),
            json.dumps({**own, "free": 2.0}),
            json.dumps({**own, "best": 7}),
            json.dumps([own]),
            "{\"kind\": \"brute\"",
        ):
            ckpt.write_text(text)
            with pytest.raises(ValueError):
                brute_force_extremal(5, (1, 3), "edges", checkpoint_path=str(ckpt))
            assert ckpt.read_text() == text

    def test_removed_checkpoint_options_are_type_errors(self, tmp_path):
        # a checkpoint is resumed whenever it matches, and saved every
        # CHECKPOINT_CLASSES classes: neither is an argument
        ckpt = str(tmp_path / "state.json")
        with pytest.raises(TypeError):
            brute_force_extremal(5, (1, 3), "edges", checkpoint_path=ckpt, resume=True)
        with pytest.raises(TypeError):
            brute_force_extremal(5, (1, 3), "edges", checkpoint_path=ckpt, checkpoint_every=1)
        assert not os.path.exists(ckpt)


def scan_solving_every_child(parent, spec, mode, floor):
    """The brute worker without the walk bound or the new-vertex fan test:
    every child is checked by `contains_fan`, and every fan-free one is
    scored, as before the bound, whatever floor says."""
    scored = []
    for crows, _ in _children_of_parent_aug(parent, None):
        g = Graph._from_rows_unchecked(crows)
        if contains_fan(g, spec) is None:
            value = g.edge_count if mode == "edges" else spectral_radius(g).lam
            scored.append((value, crows))
    return len(scored), scored


def scan_with_float_solves(parent, spec, mode, floor):
    """The brute worker before exact scores: a float solve of each fan-free
    child whose walk bound W has √W at least floor."""
    free, scored = scan_solving_every_child(parent, spec, mode, floor)
    return free, [(v, c) for v, c in scored if math.sqrt(_walk_bound(c)) >= floor]


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

    def test_turan_class_is_never_skipped(self, monkeypatch):
        # the floor `brute` hands its workers, read off the scan's partial;
        # the levels are stubbed empty, so nothing is enumerated
        floors = []

        def record_floor(fn, tasks, jobs):
            floors.append(fn.keywords["floor"])
            yield from ()

        monkeypatch.setattr(oracle, "_levels", lambda n_max, pred=None: iter([(n_max, [])]))
        monkeypatch.setattr(oracle, "_map", record_floor)
        for r in range(2, 6):
            for n in range(1, 11):
                brute_force_extremal(n, (1, r), "lambda")
                floor = floors.pop()
                turan = turan_graph(n, r - 1)
                assert floor == exact_spectral_radius(turan), (n, r)
                # it passes the prefilter, and the cutoff at the floor keeps it
                assert math.sqrt(_walk_bound(turan.rows)) >= floor, (n, r)
                assert exact_spectral_radius(turan, floor) == floor, (n, r)
                if r >= 3:
                    newton = multipartite_spectral_radius(balanced_sizes(n, r - 1), tol=1e-14)
                    assert abs(floor - newton) <= 1e-12, (n, r)

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
        # vertices have a walk bound at or above λ(T(7, 2))².  The floor's
        # own bracket goes through the same binding, first, before the
        # scan; it is counted apart
        graphs = []
        real = oracle.exact_spectral_radius

        def counting(g, *args):
            graphs.append(g)
            return real(g, *args)

        monkeypatch.setattr(oracle, "exact_spectral_radius", counting)
        rep = brute_force_extremal(7, (2, 3), "lambda", jobs=1)
        floor_bracket, *child_brackets = graphs
        assert floor_bracket == turan_graph(7, 2)
        assert (rep.free_count, len(child_brackets)) == (400, 77)

    @pytest.mark.parametrize("spec", [(2, 3), (1, 4)])
    def test_resume_from_any_checkpoint_gives_the_clean_report(self, spec, tmp_path, monkeypatch):
        # The merged state at a cursor depends on the worker: below the
        # Turán floor the full-solve oracle keeps classes in `best` and
        # `cands` that the bounded workers never score.  Whichever worker
        # wrote it, a resume from the state after any parent ends in the
        # clean report.  The levels and the per-parent scans are computed
        # once, so each resume costs its merge alone.
        exact_worker = oracle._scan_extremal_parent
        clean = brute_force_extremal(7, spec, "lambda").to_json(timing=False)
        real_write = oracle._write_json_atomic
        states = {}
        monkeypatch.setattr(
            oracle, "_write_json_atomic", lambda path, obj: states.setdefault(json.dumps(obj), obj)
        )
        monkeypatch.setattr(oracle, "CHECKPOINT_CLASSES", 1)
        ckpt = tmp_path / "ckpt.json"
        for worker in (scan_solving_every_child, scan_with_float_solves, exact_worker):
            monkeypatch.setattr(oracle, "_scan_extremal_parent", worker)
            brute_force_extremal(7, spec, "lambda", checkpoint_path=str(ckpt))
        monkeypatch.setattr(oracle, "_write_json_atomic", real_write)
        levels = list(fan_free_levels(6, spec))
        # a save follows every parent that builds a class
        fan_free = fan_free_pred(spec)
        builds = [i for i, p in enumerate(levels[6][1], 1) if _children_of_parent_aug(p, fan_free)]
        assert {s["parent_cursor"] for s in states.values()} == set(builds)
        monkeypatch.setattr(oracle, "_levels", lambda n_max, pred=None: iter(levels[: n_max + 1]))
        scans = {}

        def scan_once(parent, **kwargs):
            if parent not in scans:
                scans[parent] = exact_worker(parent, **kwargs)
            return scans[parent]

        monkeypatch.setattr(oracle, "_scan_extremal_parent", scan_once)
        for text in states:
            ckpt.write_text(text)
            resumed = brute_force_extremal(7, spec, "lambda", checkpoint_path=str(ckpt))
            assert resumed.to_json(timing=False) == clean, text


@pytest.fixture(scope="module")
def all_classes():
    """Every class on n vertices, n = 0..8, from the enumeration."""
    return {n: list(enumerate_graphs(n)) for n in range(9)}


class TestAllClassWalk:
    """`brute` builds only the fan-free classes and counts the others in
    closed form.  The slow oracle enumerates every class, then filters by
    `contains_fan` and scores each fan-free one."""

    # OEIS A000088
    GRAPHS_ON_N = [1, 1, 2, 4, 11, 34, 156, 1044, 12346, 274668, 12005168]

    def test_graph_count_by_cycle_index(self, all_classes):
        assert [graph_count(n) for n in range(11)] == self.GRAPHS_ON_N
        for n, classes in all_classes.items():
            assert graph_count(n) == len(classes), n
        with pytest.raises(ValueError):
            graph_count(-1)

    @pytest.mark.parametrize("mode", ["edges", "lambda"])
    @pytest.mark.parametrize("spec", [(2, 3), (3, 3), (2, 4)])
    def test_brute_is_the_filtered_all_class_walk(self, spec, mode, all_classes):
        for n in range(1, 9):
            rep = brute_force_extremal(n, spec, mode)
            # a λ bracket stops (None) once it is below the reported best, so
            # the max of the others is the best exactly when the report is right
            scores = {
                to_graph6(g): g.edge_count
                if mode == "edges"
                else exact_spectral_radius(g, rep.best_value)
                for g in all_classes[n]
                if contains_fan(g, spec) is None
            }
            best = max(v for v in scores.values() if v is not None)
            assert rep.graphs_examined == len(all_classes[n]), n
            assert rep.free_count == len(scores), n
            assert rep.best_value == best, n
            assert rep.witnesses == tuple(sorted(s for s, v in scores.items() if v == best)), n


def no_child_left() -> bool:
    """True when this process has no child, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


class TestMap:
    """`_map`: the caller is worker 0, and forked workers stream their
    results back; no test here starts more than four workers."""

    def test_results_in_task_order(self):
        caller = os.getpid()
        for jobs in (2, 3, 5):
            for count in (0, 1, 4, 7):
                got = list(oracle._map(lambda t: (t * t, os.getpid()), range(count), jobs))
                assert [sq for sq, _ in got] == [t * t for t in range(count)], (jobs, count)
                # the caller runs tasks[0::used] itself, each worker another stride
                used = min(jobs, count)
                runs_here = [pid == caller for _, pid in got]
                assert runs_here == [i % used == 0 for i in range(count)], (jobs, count)
                assert no_child_left()

    def test_a_worker_exception_keeps_its_type(self):
        def fn(t):
            if t == 3:  # a worker's task at two jobs
                raise KeyError(t)
            return t

        with pytest.raises(KeyError) as info:
            list(oracle._map(fn, range(6), 2))
        assert info.value.args == (3,)
        assert no_child_left()

    def test_closing_early_leaves_no_child(self):
        results = oracle._map(lambda t: time.sleep(t and 30) or t, range(6), 3)
        assert next(results) == 0
        results.close()
        assert no_child_left()

    def test_a_failed_fork_reaps_the_worker_started(self, monkeypatch, capsys):
        real_fork = os.fork
        forks = []

        def fork_once():
            forks.append(None)
            if len(forks) == 2:
                raise BlockingIOError(errno.EAGAIN, "fork refused")
            return real_fork()

        monkeypatch.setattr(os, "fork", fork_once)
        with pytest.raises(BlockingIOError):
            list(oracle._map(lambda t: time.sleep(30), range(6), 3))
        assert len(forks) == 2 and no_child_left()
        forks.clear()
        assert cli.main(["brute", "--n", "6", "--k", "2", "--r", "3", "--jobs", "3"]) == 2
        assert capsys.readouterr().err == "error: [Errno 11] fork refused\n"
        assert len(forks) == 2 and no_child_left()


# Raises ConvergenceError in one task that runs in the worker at two jobs
# (odd index) and prints, for jobs 1 and 2, the message and result the
# caller caught, then the CLI's exit code at two jobs.  argv[1] names the
# search.
CONVERGENCE_PROBE = """
import contextlib, functools, io, json, math, os, sys
from fanspec import FanSpec, cli, oracle, turan_graph
from fanspec.spectral import ConvergenceError, SpectrumResult

def stalled(value):
    return ConvergenceError(
        "stalled", SpectrumResult(lam=value, vector=[1, 2], residual=0.5, iterations=9)
    )

spec = FanSpec(2, 3)
if sys.argv[1] == "family":
    target = oracle._family_members(30, spec)[1]
    real = oracle._member_lambda

    def fake(member, spec):
        if member == target:
            raise stalled(float(oracle._member_edges(member)))
        return real(member, spec)

    oracle._member_lambda = fake
    run = lambda jobs: oracle.family_search(30, spec, jobs=jobs)
    argv = ["family", "--n", "30", "--k", "2", "--r", "3", "--jobs", "2"]
else:
    # the first graph that a worker's parent brackets, at n = 6
    fan_free = functools.partial(oracle.fan_free_through_last, spec=spec)
    *_, (_, parents) = oracle._levels(5, fan_free)
    real = oracle.exact_spectral_radius
    floor = real(turan_graph(6, 2))
    bracketed = []
    oracle.exact_spectral_radius = lambda g, cutoff: bracketed.append(g.rows) or real(g, cutoff)
    for parent in parents[1::2]:
        oracle._scan_extremal_parent(parent, spec, "lambda", floor)
        if bracketed:
            break
    target = bracketed[0]

    def fake(g, cutoff=-math.inf):
        if g.rows == target:
            raise stalled(float(g.edge_count))
        return real(g, cutoff)

    oracle.exact_spectral_radius = fake
    run = lambda jobs: oracle.brute_force_extremal(6, spec, "lambda", jobs=jobs)
    argv = ["brute", "--n", "6", "--k", "2", "--r", "3", "--mode", "lambda", "--jobs", "2"]
caught = []
for jobs in (1, 2):
    try:
        run(jobs)
    except ConvergenceError as exc:
        r = exc.result
        caught.append([str(exc), r.lam, r.vector, r.residual, r.iterations])
with contextlib.redirect_stderr(io.StringIO()):
    code = cli.main(argv)
with contextlib.suppress(ChildProcessError):
    os.waitpid(-1, os.WNOHANG)
    code = "a child was left"
print(json.dumps([caught, code]))
"""


@pytest.mark.parametrize("search", ["family", "brute"])
def test_convergence_error_in_a_worker_reaches_the_caller(search):
    # the error used to break the unpickling of a pool's result and hang
    # the caller, hence the timeout
    proc = subprocess.run(
        [sys.executable, "-c", CONVERGENCE_PROBE, search],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    caught, code = json.loads(proc.stdout)
    assert len(caught) == 2 and caught[0] == caught[1]
    assert caught[0][0] == "stalled" and caught[0][2:] == [[1, 2], 0.5, 9]
    assert code == 3


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

    def test_matches_every_partition(self):
        def partitions(n, parts, top):
            """Descending tuples of `parts` positive integers at most top
            with sum n, largest first."""
            if parts == 0:
                return [()] if n == 0 else []
            return [
                (s, *rest)
                for s in range(min(n, top), 0, -1)
                for rest in partitions(n - s, parts - 1, s)
            ]

        for n in range(80):
            for parts in range(2, 6):
                every = partitions(n, parts, n)
                for imbalance in range(-1, 5):
                    want = [v for v in every if v[0] - v[-1] <= imbalance]
                    assert _part_size_vectors(n, parts, imbalance) == want, (n, parts, imbalance)


class TestFamilySearch:
    def test_member_edges_closed_form(self):
        # the cross pairs of the parts plus g0's edges, against the member built
        for n in (20, 63, 64, 90):
            for spec in ((2, 3), (3, 3), (2, 4)):
                members = _family_members(n, FanSpec(*spec))
                assert members
                for member in members:
                    sizes, _, g0_edges, host = member
                    g = embed_in_part(sizes, host, g0_edges)
                    assert _member_edges(member) == sum(g.degrees()) // 2, (n, spec, member)

    def test_balanced_bipartite_wins_triangle_free(self):
        rep = family_search(60, (1, 3))
        assert rep.best_value == pytest.approx(30.0, abs=1e-9)
        assert rep.winner["part_sizes"] == [30, 30]
        assert from_graph6(rep.witnesses[0]) == turan_graph(60, 2)

    def test_bowtie_family_at_20(self):
        rep = family_search(20, (2, 3))
        assert rep.winner["edges"] == 101
        assert rep.matches_formula is True
        assert rep.free_count == rep.graphs_examined  # everything in-family is free here

    def test_balance_wins_at_200(self):
        # the sweep holds (101, 99) too, and the balanced vector beats it
        assert {m[0] for m in _family_members(200, FanSpec(2, 3))} == {(100, 100), (101, 99)}
        rep = family_search(200, (2, 3))
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

    def test_an_exact_tie_goes_to_fewer_edges(self, monkeypatch):
        # a member with fewer edges that ties the best λ exactly is a
        # maximizer too, and the verdict must see it: plant one
        spec = FanSpec(2, 3)
        real = oracle._member_lambda
        best = max(
            _family_members(20, spec), key=lambda m: real(m, spec) or 0.0
        )
        planted = ((10, 10), "?", (), 0)
        assert _member_edges(planted) < _member_edges(best) == 101

        def tie(member, spec):
            return real(best if member == planted else member, spec)

        monkeypatch.setattr(oracle, "_member_lambda", tie)
        rep = family_search(20, spec)
        assert rep.winner["g0_graph6"] == "?" and rep.winner["edges"] == 100
        assert rep.best_value == real(best, spec)
        assert rep.matches_formula is False

    def test_tie_at_3_3_n11_has_fewer_edges(self):
        # `DLo` in the 5-vertex part and two triangles (`EJaG`) in the
        # 6-vertex part share λ = 1 + √31 exactly, with 35 and 36 edges
        rep = family_search(11, (3, 3))
        assert rep.winner == {
            "part_sizes": [6, 5],
            "g0_graph6": "DLo",
            "host_part": 1,
            "edges": 35,
            "lambda": pytest.approx(1 + math.sqrt(31), abs=1e-10),
        }
        theorem = verify_main_theorem(11, (3, 3))
        assert (theorem.agrees, theorem.family_winner_edges, theorem.formula_edges) == (
            False,
            35,
            36,
        )
        sympy = pytest.importorskip("sympy")
        x = sympy.symbols("x")
        for g0, host in (("DLo", 1), ("EJaG", 0)):
            g = embed_in_part((6, 5), host, from_graph6(g0).edges())
            adj = sympy.Matrix(11, 11, lambda u, v: int(g.has_edge(u, v)))
            assert sympy.rem(adj.charpoly(x).as_expr(), x**2 - 2 * x - 30, x) == 0, g0

    @pytest.mark.parametrize("spec, n_max", [((3, 3), 30), ((4, 3), 12)])
    def test_verdict_covers_every_maximizer(self, spec, n_max, monkeypatch):
        # `matches_formula` holds exactly when every member tying the best
        # λ has the closed form's edge count; exact ties of different edge
        # counts occur at (3,3) n = 7, 9, 11 and (4,3) n = 10
        real = oracle._member_lambda
        for n in range(2, n_max + 1):
            lams = {}
            monkeypatch.setattr(
                oracle, "_member_lambda", lambda m, spec: lams.setdefault(m, real(m, spec))
            )
            rep = family_search(n, spec)
            top = max(lam for lam in lams.values() if lam is not None)
            tied = {_member_edges(m) for m, lam in lams.items() if lam == top}
            assert rep.matches_formula == (tied == {rep.formula_value}), n

    def test_encodes_each_candidate_once(self, monkeypatch):
        # one graph6 per candidate, not one per (vector, host, candidate)
        # member, plus the witness
        calls = []
        real = oracle.to_graph6
        monkeypatch.setattr(oracle, "to_graph6", lambda g: calls.append(g) or real(g))
        rep = family_search(40, (3, 3))
        assert rep.graphs_examined > len(g0_candidates(3)) + 1
        assert len(calls) == len(g0_candidates(3)) + 1

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
        # family-level agreement at every order, which is verify's `agrees`;
        # verify itself would add the exhaustive cross-check up to n = 10
        for n in range(6, 13):
            assert family_search(n, (1, 3)).matches_formula

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
