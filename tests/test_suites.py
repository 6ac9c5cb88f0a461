import hashlib

from curvecount.suites import run_suite


def test_every_suite_result_is_pinned():
    # every check's name, expected and actual text (so its case count) and
    # pass flag, for both seeds the CI verify steps run
    results = run_suite("all", seed=2026) + run_suite("properties", seed=7)
    assert len(results) == 41 + 12
    digest = hashlib.sha256()
    for check in results:
        digest.update(repr(tuple(check)).encode())
    assert digest.hexdigest() == "051dd31f62cb2c10c08e6b9abdddf4c8a56792236e42a723998938f681465d7f"
