from drinfeldforms import verify
from drinfeldforms.verify import (
    congruence_suite_items,
    goss_suite_items,
    paper_suite_items,
    run_suite,
    suite_passed,
)


def test_goss_suite_records_reducible_skip():
    records = run_suite(goss_suite_items([3]))
    assert suite_passed(records)
    skipped = [r for r in records if r["status"] == "skipped"]
    assert len(skipped) == 1
    assert "reducible" in skipped[0]["reason"]
    # the degree-2 substitute ran and passed
    assert any(r["id"] == "goss/q3/m(t^2+1)" and r["status"] is True for r in records)


def test_congruence_suite():
    records = run_suite(congruence_suite_items([2], lambda q: 2))
    assert suite_passed(records)
    assert {r["lemma"] for r in records} == {
        "xi-coset-congruence",
        "diamond-coset-congruence",
        "distinct-coset-representatives",
    }


def test_small_paper_suite_sequential_vs_pool():
    items = paper_suite_items([2], nmax=1, kmax=2, seed=7)
    seq = run_suite(items, jobs=1)
    par = run_suite(items, jobs=2)
    assert suite_passed(seq)
    assert seq == par  # records are deterministic and sorted


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, runs in-process."""

    seen = []

    def __init__(self, max_workers):
        RecordingPool.seen.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def test_jobs_capped_by_items_and_cpus(monkeypatch):
    monkeypatch.setattr(verify, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(verify.os, "cpu_count", lambda: 3)
    items = congruence_suite_items([2], lambda q: 2)  # 2 items
    want = run_suite(items, jobs=1)
    RecordingPool.seen = []
    assert run_suite(items, jobs=10**6) == want
    assert run_suite(items * 2, jobs=10**6) == sorted(want * 2, key=lambda r: r["id"])
    assert run_suite(items * 2, jobs=2) == sorted(want * 2, key=lambda r: r["id"])
    assert RecordingPool.seen == [2, 3, 2]
    # one CPU, or an unknown count, runs in this process
    monkeypatch.setattr(verify.os, "cpu_count", lambda: None)
    assert run_suite(items, jobs=8) == want
    assert run_suite(items, jobs=0) == want
    assert RecordingPool.seen == [2, 3, 2]


def test_paper_suite_contains_all_checkers():
    items = paper_suite_items([2], nmax=2, kmax=3, seed=0)
    kinds = {kind for kind, _ in items}
    assert kinds == {"goss", "pullback", "congruence", "cusps", "stable-count", "freeness", "space"}


def test_space_item_records():
    from drinfeldforms.verify import _space_item

    records = _space_item(2, 1, 2, seed=5, hecke_ms=[[1, 1]])
    by_lemma = {r["lemma"]: r for r in records}
    for lemma in (
        "cocycle-dimension",
        "harmonicity-residual",
        "antisymmetry",
        "equivariance",
        "source-sum-recursion",
        "classification-orbit-invariance",
        "delta-basis",
        "ordinary-certificate",
        "diamond-hecke-commutation",
        "diamond-group-action",
        "diamond-label-permutation",
        "nonordinary-nilpotency",
    ):
        assert lemma in by_lemma, lemma
        assert by_lemma[lemma]["status"] in (True, "diagnostic")
    dim = by_lemma["cocycle-dimension"]
    assert dim["depth_stable"] is True and dim["dim"] == 1
    diag = [r for r in records if r["lemma"] == "ut-tm-commutator-diagnostic"]
    assert diag and all("commutes" in r for r in diag)


def test_depth_stable_is_computed(monkeypatch):
    from drinfeldforms.verify import _space_item

    class Unchecked(verify.CocycleSpace):
        def __init__(self, ctx, k, check_stability=True, **kwargs):
            super().__init__(ctx, k, check_stability=False, **kwargs)

    monkeypatch.setattr(verify, "CocycleSpace", Unchecked)
    records = _space_item(2, 1, 2, seed=5, hecke_ms=[[1, 1]])
    dim = next(r for r in records if r["lemma"] == "cocycle-dimension")
    assert dim["depth_stable"] is False and dim["status"] is False
