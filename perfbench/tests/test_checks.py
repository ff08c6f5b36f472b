"""The benchmark's own checkers, exercised without running a workload.

    python3 -m pytest perfbench/tests -q
"""

import hashlib
import json

import numpy as np
import pytest

from checks import (
    CheckFailed,
    check_beats_flag_all,
    count_csv_rows,
    flag_all_f1,
    mask_from_file,
    mask_sha256,
    metric_sum,
    parse_prometheus,
    percentile,
    prf,
    recount_tokens,
    schema_fingerprint,
    spread,
)


def test_prf_against_a_hand_built_mask():
    truth = np.array([[1, 0, 0], [0, 1, 0]], dtype=bool)
    pred = np.array([[1, 1, 0], [0, 0, 0]], dtype=bool)
    p, r, f1 = prf(pred, truth)
    assert (p, r) == (0.5, 0.5)
    assert f1 == pytest.approx(0.5)


def test_prf_with_nothing_flagged_is_zero_not_a_division_error():
    truth = np.array([[1, 0]], dtype=bool)
    assert prf(np.zeros_like(truth), truth) == (0.0, 0.0, 0.0)


def test_prf_refuses_mismatched_shapes():
    with pytest.raises(CheckFailed):
        prf(np.zeros((2, 2), bool), np.zeros((2, 3), bool))


def test_flag_all_f1_is_the_f1_of_flagging_every_cell():
    truth = np.array([[1, 0, 0, 0], [0, 0, 0, 1]], dtype=bool)
    assert flag_all_f1(truth) == pytest.approx(2 * 0.25 / 1.25)
    assert prf(np.ones_like(truth), truth)[2] == pytest.approx(flag_all_f1(truth))


def test_flagging_every_cell_does_not_beat_the_floor():
    truth = np.array([[1, 0, 0, 0]], dtype=bool)
    with pytest.raises(CheckFailed, match="flag-every-cell"):
        check_beats_flag_all(np.ones_like(truth), truth, "probe")
    assert check_beats_flag_all(truth, truth, "probe")[2] == 1.0


@pytest.mark.parametrize("text, expected", [
    ("", 0),
    ("one two three", 3),            # words win: 13 chars // 4 = 3, 3 words
    ("a b c d e f", 6),              # words win over 11 // 4 = 2
    ('{"k": "' + "x" * 33 + '"}', 10),  # chars win: 42 // 4
])
def test_token_recount_is_max_of_words_and_quarter_chars(text, expected):
    assert recount_tokens(text) == expected


def test_csv_row_count_excludes_the_header_and_keeps_quoted_newlines(tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text('a,b\n1,2\n"multi\nline",3\n4,5\n', encoding="utf-8")
    assert count_csv_rows(path) == 3
    (tmp_path / "empty.csv").write_text("a,b\n")
    assert count_csv_rows(tmp_path / "empty.csv") == 0


def test_mask_file_parse_and_sha256(tmp_path):
    path = tmp_path / "mask.json"
    path.write_text(json.dumps({
        "attributes": ["x", "y"], "n_rows": 3, "errors": [[0, "y"], [2, "x"]],
    }))
    attrs, matrix = mask_from_file(path)
    assert attrs == ["x", "y"]
    assert matrix.tolist() == [[False, True], [False, False], [True, False]]
    assert mask_sha256(matrix) == hashlib.sha256(bytes([0, 1, 0, 0, 1, 0])).hexdigest()


def test_schema_fingerprint_joins_names_with_the_unit_separator():
    assert schema_fingerprint(["a", "b"]) == hashlib.sha256(b"a\x1fb").hexdigest()


SCRAPE = """\
# HELP repro_score_latency_seconds Batch scoring latency
# TYPE repro_score_latency_seconds histogram
repro_score_latency_seconds_bucket{tenant="flights",le="0.01"} 3
repro_score_latency_seconds_sum{tenant="flights"} 0.25
repro_score_latency_seconds_count{tenant="flights"} 10
repro_score_latency_seconds_sum{tenant="hospital"} 1.5
repro_score_latency_seconds_count{tenant="hospital"} 20
# TYPE repro_batches_total counter
repro_batches_total 30
repro_http_requests_total{path="/score",status="200"} 29
repro_http_requests_total{path="/score",status="503"} 1
"""


def test_metrics_scrape_parser():
    samples = parse_prometheus(SCRAPE)
    assert metric_sum(samples, "repro_batches_total") == 30
    assert metric_sum(samples, "repro_score_latency_seconds_count") == 30
    assert metric_sum(samples, "repro_score_latency_seconds_sum", tenant="hospital") == 1.5
    assert metric_sum(samples, "repro_http_requests_total", status="503") == 1
    assert metric_sum(samples, "repro_missing_total") == 0
    with pytest.raises(CheckFailed):
        parse_prometheus("not a metric line at all !")


def test_spread_and_percentile():
    values = [10.0, 11.0, 9.0, 10.0, 10.5, 9.5, 10.0, 10.2, 9.8, 10.0]
    assert 0 < spread(values) < 0.1
    assert spread([5.0] * 4) == 0.0
    assert percentile(list(range(1, 101)), 99) == 99
    assert percentile([3.0], 50) == 3.0


def test_counting_client_recounts_tokens_and_shares_the_ledger():
    from layers import CountingLLM
    from repro.llm.client import LLMClient, LLMRequest, LLMResponse

    class Echo(LLMClient):
        model_name = "echo"

        def _complete(self, request):
            return LLMResponse(text=request.prompt + " ok")

    inner = Echo()
    client = CountingLLM(inner)
    client.complete(LLMRequest(kind="criteria", prompt="check these values"))
    client.complete(LLMRequest(kind="guideline", prompt="x" * 40))
    assert client.ledger is inner.ledger
    assert client.calls == inner.ledger.n_requests == 2
    # "check these values": 18 chars // 4 = 4 beats 3 words
    assert client.input_tokens == inner.ledger.total.input_tokens == 4 + 10
    assert client.output_tokens == inner.ledger.total.output_tokens == 5 + 10


def test_window_rate_stops_at_the_first_client_to_stop():
    from workloads import window_rate

    class S:
        def __init__(self, done):
            self.done = done

    # the slower client's last answer is at 2 s; the 40 rows at 3.9 s
    # come from the faster client running alone and do not count
    fast = S([(0.5, 10), (1.5, 10), (3.9, 40)])
    slow = S([(0.9, 5), (2.0, 5)])
    assert window_rate([fast, slow], t0=0.0) == 30 / 2.0
