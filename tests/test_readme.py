"""Every ``ini`` block of the README is a valid config, alone or after the experiments' preamble,
and every ``python`` block runs."""

import re
from pathlib import Path

from cascade_lab.cli_io import parse_config

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_configs_parse():
    blocks = re.findall(r"```ini\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) >= 3
    preamble = next(b for b in blocks if b.startswith("[grid]") and "[sim]" not in b)
    for block in blocks:
        if block is not preamble:
            text = block if "[grid]" in block else preamble + "\n" + block
            parse_config(text)


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) >= 2
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
        assert capsys.readouterr().out  # each block prints its result
