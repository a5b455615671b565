"""The README's demo scripts run end to end, the generation demo against the mock."""

import os
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
SRC = SCRIPTS.parent / "src"


def test_demo_scripts_exit_zero(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    corpus, syngen = tmp_path / "demo_corpus", tmp_path / "syngen_run"
    for script, *args in (
        ("make_demo_corpus.py", "--n", 20, "--out-dir", corpus),
        ("run_pipeline_demo.py", "--in", corpus / "gold.jsonl",
         "--out", corpus / "scrubbed.jsonl"),
        ("run_syngen_demo.py", "--exemplars", corpus / "gold.jsonl", "--fanout", 1,
         "--out-dir", syngen),
    ):
        proc = subprocess.run([sys.executable, str(SCRIPTS / script), *map(str, args)],
                              cwd=tmp_path, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, (script, proc.stdout, proc.stderr)
    assert (corpus / "scrubbed.jsonl").stat().st_size
    assert (syngen / "accepted.jsonl").stat().st_size
