"""README's CLI examples and library quick start run as written, and give
the values README quotes."""

import json
import re
import shlex
from pathlib import Path

from smoothdio.cli import EXIT_OK, main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _code_blocks(language: str = "") -> list:
    return re.findall(rf"^```{language}\n(.*?)^```", README, flags=re.S | re.M)


def _cli_examples() -> list:
    """Each `smoothdio …` command of the CLI example block, continuation lines
    joined and comments dropped, as an argv list without the program name."""
    block = next(b for b in _code_blocks() if "smoothdio search" in b)
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        argv = shlex.split(line, comments=True)
        if argv and argv[0] == "smoothdio":
            commands.append(argv[1:])
    return commands


def test_cli_examples_run(tmp_path):
    examples = _cli_examples()
    assert [argv[0] for argv in examples] == ["search", "search", "psi", "psi", "rho", "alpha", "kloosterman",
                                              "dispersion"]
    for i, argv in enumerate(examples):
        if "--out" in argv:  # the example's file, written into tmp_path
            k = argv.index("--out") + 1
            argv[k] = str(tmp_path / argv[k])
        else:
            argv += ["--out", str(tmp_path / f"example{i}.out")]
        assert main(argv) == EXIT_OK, argv
    with open(tmp_path / "example3.out") as f:  # psi --x 1e12 --y 100
        assert json.load(f)["rows"][0]["psi"] == 66932543


def test_library_quick_start_runs():
    (block,) = _code_blocks("python")
    names = {}
    exec(block, names)
    assert names["psi"](10**6, 100) == 72271
    assert repr(names["dickman_rho"](3.0, 1e-9)).startswith("0.0486083882911")
    assert "# exact smooth count: 72271" in block and "# 0.0486083882911..." in block
