import json
import re
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def test_batch_faults_prints_each_layout_and_a_summary(tmp_path):
    # A 48-query synth stream in batches of 16: three batch calls a layout.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "method": "rest", "batch": 16,
        "synth": {"classes": 4, "dim": 8, "gallery_size": 32, "stream_length": 48,
                  "sigma_query": 0.1, "sigma_gallery": 0.1, "seed": 0},
    }))
    out = subprocess.run(
        [sys.executable, str(TOOLS / "batch_faults.py"), "--config", str(config), "--layouts", "2"],
        check=True, capture_output=True, text=True,
    ).stdout.splitlines()
    assert out[0] == "layout total_faults batch_median batches"
    for k, line in enumerate(out[1:3]):
        assert re.fullmatch(rf"{k} \d+ \d+\.\d 3", line), line
    assert re.fullmatch(r"over 2 layouts: total median \d+\.\d, range \d+-\d+", out[3])
    assert len(out) == 4
