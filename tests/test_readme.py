"""The README's library examples and command-line workflow run as written."""

import os
import re
import subprocess
import sys
from pathlib import Path

import rrckit as rk
from rrckit.io import write_timeseries_csv

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks(text: str) -> list[str]:
    """The fenced ```python blocks of a Markdown text, in order."""
    return re.findall(r"^```python\n(.*?)^```$", text, flags=re.MULTILINE | re.DOTALL)


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    # The blocks continue one session (the second uses the first's import),
    # so they share one namespace; files they write land in tmp_path.
    blocks = python_blocks(README.read_text(encoding="utf-8"))
    assert len(blocks) >= 2
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    for k, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {k + 1}", "exec"), namespace)


def command_line_blocks(text: str) -> list[str]:
    """The fenced ```bash blocks of the README's ``## Command line`` section."""
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```bash\n(.*?)^```$", section, flags=re.MULTILINE | re.DOTALL)


def test_readme_command_line_blocks_run(tmp_path):
    # The blocks run as one shell session in tmp_path, with the user data the
    # exposure block assumes (remit.csv, deposits.csv) written beforehand.
    blocks = command_line_blocks(README.read_text(encoding="utf-8"))
    assert len(blocks) >= 3
    panel, _ = rk.synth_panel(18, 15, 24, seed=0, noise_level=0.05)
    write_timeseries_csv(tmp_path / "remit.csv", rk.TimeSeries(panel.R))
    write_timeseries_csv(tmp_path / "deposits.csv", rk.TimeSeries(panel.D))
    script = f'rrckit() {{ "{sys.executable}" -m rrckit.cli "$@"; }}\n' + "".join(blocks)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(["bash", "-e"], input=script, cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = (tmp_path / "forecast.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1 + 1000  # header + one row per forecast step
