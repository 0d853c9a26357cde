"""Tests for the command-line interface."""

import argparse
import re
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_args(self):
        args = build_parser().parse_args(["run", "4MEM-1", "ME-LREQ"])
        assert args.workload == "4MEM-1"
        assert args.policy == "ME-LREQ"

    def test_figure_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "7"])

    def test_readme_flag_table_matches_parser(self):
        """README's "Command line" table names exactly the
        ``(verb, --flag)`` pairs the parser defines."""
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
        documented = set()
        for line in section.splitlines():
            m = re.match(r"\| `(--[\w-]+)[^`]*` \| ([^|]+) \|", line)
            if m:
                for verb in m.group(2).split(","):
                    documented.add((verb.strip(), m.group(1)))
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        defined = {
            (verb, opt)
            for verb, p in sub.choices.items()
            for a in p._actions
            for opt in a.option_strings
            if opt.startswith("--") and opt != "--help"
        }
        assert documented == defined


class TestCommands:
    def test_policies(self, capsys):
        assert main(["policies"]) == 0
        out = capsys.readouterr().out
        assert "ME-LREQ" in out and "HF-RF" in out

    def test_workloads(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "4MEM-1" in out and "wupwise" in out
        assert "4CLD-1" in out and "kvstore" in out
        # 36 Table 3 mixes + 5 cloud mixes
        assert out.count("\n") == 41

    def test_profile_one_app(self, capsys):
        assert main(["profile", "--app", "eon", "--budget", "3000"]) == 0
        out = capsys.readouterr().out
        assert "eon" in out

    def test_run_small(self, capsys):
        assert main(["run", "2MEM-1", "LREQ", "--budget", "3000"]) == 0
        out = capsys.readouterr().out
        assert "SMT speedup" in out
        assert "unfairness" in out


    def test_interrupt_exits_130(self, monkeypatch, capsys):
        import repro.cli as cli

        def boom(_args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_cmd_policies", boom)
        # parser binds fn at build time, so rebuild through main()
        rc = cli.main(["policies"])
        assert rc == 130
        assert "interrupted" in capsys.readouterr().err
