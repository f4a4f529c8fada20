"""The README's suite example runs and passes its own checks."""

import re
from pathlib import Path

from crslab.harness import run_suite

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_suite_example_passes(tmp_path):
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    suite = tmp_path / "suite.json"
    suite.write_text(blocks[0])
    result = run_suite(suite, out_dir=tmp_path / "out")
    assert result.exit_code == 0, result.entries
