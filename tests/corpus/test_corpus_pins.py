"""The corpora and the paper-scale Table I suites are the ones recorded.

Each digest covers every instance of one corpus profile (all registered
families, corpus seed 2024), or every case of
``table1_suites(scale="paper")``, in order: its case id, its shape and
its row masks.  The scoreboard baselines, ``perfbench/expected.json``
and the search pins are all keyed by these instances, so a sampler or
seed-derivation change that moves one draw moves a digest; do not
re-record one to make it pass.
"""

import hashlib

import pytest

from repro.benchgen.suite import flatten_suites, table1_suites
from repro.corpus.registry import PROFILES, build_corpus

DIGESTS = {
    "smoke": (
        "1a74d1ae50008e6cad2917e6e83c4717"
        "7fd18b1f89a757b0c27bc5ccf204a668"
    ),
    "quick": (
        "c28eceb29597684aeda368c6d3e99867"
        "8f1397c9ec3e67554147db85c095d559"
    ),
    "full": (
        "3ca531aa1ee1134afa3eb1a52bb015c5"
        "d71d2b996d6817f7bf0c714bf79dd1cb"
    ),
    "table1-paper": (
        "ff7e649451ecc1e79d97a3e96c4b58dc"
        "1e956e6e0b93beae8c764ea5df81bce1"
    ),
}


def _digest(cases):
    digest = hashlib.sha256()
    for case in cases:
        matrix = case.matrix
        digest.update(
            f"{case.case_id} {matrix.shape} {matrix.row_masks}\n".encode()
        )
    return digest.hexdigest()


@pytest.mark.parametrize("profile", PROFILES)
def test_corpus_matches_its_recorded_digest(profile):
    assert _digest(build_corpus(profile=profile)) == DIGESTS[profile]


def test_paper_scale_table1_suites_match_their_recorded_digest():
    cases = flatten_suites(table1_suites(scale="paper"))
    assert _digest(cases) == DIGESTS["table1-paper"]
