"""Every ``ini`` block of the README is a valid config, alone or after the experiments' preamble,
the first one shows every key of the config grammar, and every ``python`` block runs."""

import re
from pathlib import Path

from cascade_lab.cli_io import GRAMMAR, parse_config

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_configs_parse():
    blocks = re.findall(r"```ini\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) >= 3
    preamble = next(b for b in blocks if b.startswith("[grid]") and "[sim]" not in b)
    for block in blocks:
        if block is not preamble:
            text = block if "[grid]" in block else preamble + "\n" + block
            parse_config(text)


def test_reference_config_shows_every_grammar_key():
    # a key may appear in a comment (``; or nu_grid = ...``), since nu/nu_grid and T/T_slow exclude
    # each other; the reverse direction holds because parse_config rejects unknown keys
    reference = re.findall(r"```ini\n(.*?)```", README.read_text(), flags=re.S)[0]
    sections = dict(re.findall(r"^\[(\w+)\]([^[]*)", reference, flags=re.M))
    missing = [
        f"{section}.{key}"
        for section, key, *_ in GRAMMAR
        if not re.search(rf"(^|[\s(]){key} = ", sections.get(section, ""), flags=re.M)
    ]
    assert missing == []


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) >= 2
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
        assert capsys.readouterr().out  # each block prints its result
