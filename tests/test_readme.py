"""The README's library sketch runs against the package as it is, and its
CLI lines parse."""
import re
import shlex
from pathlib import Path

from fiberalloc.cli import COMMANDS, _read_argv, build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks, "README.md has no python block"
    for code in blocks:
        exec(compile(code, str(README), "exec"), {})


def test_cli_lines_parse():
    # an option the README shows that its subcommand no longer takes fails
    # here as a SystemExit; every line is read without argparse, to the
    # parser's namespace
    argvs = [shlex.split(line)[1:]
             for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
             for line in block.splitlines() if line.startswith("fiberalloc ")]
    assert {argv[0] for argv in argvs} == set(COMMANDS)
    for argv in argvs:
        args = build_parser().parse_args(argv)
        assert vars(_read_argv(argv)) == vars(args)
