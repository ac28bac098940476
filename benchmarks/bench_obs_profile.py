"""Obs profile artifact: margins read back from the freshly written file.

The identify margin printed (and asserted) here comes from the
artifact this very run wrote to a temp path — never from the committed
repo copy, which goes stale the moment the hot path changes.  The
committed ``BENCH_obs_realtime.json`` is a reference snapshot for
readers; any driver output must be read-after-write.
"""

import json

from repro.experiments.__main__ import main


def test_obs_profile_identify_margin(tmp_path, capsys):
    out = tmp_path / "BENCH_obs_realtime.json"
    rc = main(
        ["bench", "obs_realtime", "--seed", "0", "--repeat", "1", "--out", str(out)]
    )
    assert rc == 0

    # Read-after-write: the fresh artifact, not the repo copy.
    doc = json.loads(out.read_text())
    assert "nn.fused" in doc["stages"], "fused LSTM stage missing from artifact"
    assert doc["nn"]["serve"]["parity_gate"]["accepted"] is True
    rt = doc["realtime"]
    assert rt["identify_margin_x"] > 1.0, "identify slower than real time"
    assert rt["serve_dtype"] == "float32"

    with capsys.disabled():
        print(
            f"\nidentify margin (fresh artifact): {rt['identify_margin_x']:.1f}x "
            f"({rt['identify_per_window_ms']:.2f} ms/window, "
            f"predict {rt['predict_per_window_ms']:.3f} ms/window, "
            f"serve_dtype={rt['serve_dtype']})"
        )
