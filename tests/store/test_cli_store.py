"""CLI coverage for ``--store`` flags and the ``repro store`` command."""

import pytest

from repro.cli import build_parser, main
from repro.store import VALUE_SCHEMA


class TestParser:
    def test_store_flag_on_admit_sweep_serve_recover(self):
        for argv in (["admit", "--store", "d"],
                     ["sweep", "--store", "d"],
                     ["serve", "--journal", "j", "--store", "d"],
                     ["recover", "--journal", "j", "--store", "d"]):
            assert build_parser().parse_args(argv).store == "d"

    def test_store_subcommand_actions(self):
        args = build_parser().parse_args(["store", "inspect", "dir"])
        assert args.action == "inspect" and args.path == "dir"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["store", "defrag", "dir"])


class TestAdmitWithStore:
    def test_second_run_is_served_from_the_store(self, tmp_path, capsys):
        sdir = str(tmp_path / "store")
        argv = ["admit", "--hops", "3", "--deadline", "30",
                "--max", "30", "--store", sdir]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert main(argv) == 0
        warm = capsys.readouterr().out

        def admitted(out):
            return next(ln for ln in out.splitlines() if "admitted" in ln)

        assert admitted(warm) == admitted(cold)
        # the warm engine answered from the store: zero cold misses
        assert "misses                 0" in warm
        assert "hit_rate          100.0%" in warm

    def test_store_implies_incremental(self, tmp_path, capsys):
        sdir = str(tmp_path / "store")
        assert main(["admit", "--hops", "2", "--max", "5",
                     "--store", sdir]) == 0
        out = capsys.readouterr().out
        assert "engine stats" in out  # engine rung engaged
        assert "store:" in out


class TestStoreSubcommand:
    def seed(self, tmp_path, capsys):
        sdir = str(tmp_path / "store")
        assert main(["admit", "--hops", "2", "--max", "5",
                     "--store", sdir]) == 0
        capsys.readouterr()
        return sdir

    def test_inspect(self, tmp_path, capsys):
        sdir = self.seed(tmp_path, capsys)
        assert main(["store", "inspect", sdir]) == 0
        out = capsys.readouterr().out
        assert "entries:" in out and VALUE_SCHEMA in out

    def test_verify_clean(self, tmp_path, capsys):
        sdir = self.seed(tmp_path, capsys)
        assert main(["store", "verify", sdir]) == 0
        assert "all good" in capsys.readouterr().out

    def test_verify_detects_corruption(self, tmp_path, capsys):
        sdir = self.seed(tmp_path, capsys)
        seg = next((tmp_path / "store").glob("seg-*.dat"))
        blob = bytearray(seg.read_bytes())
        blob[-5] ^= 0xFF
        seg.write_bytes(bytes(blob))
        assert main(["store", "verify", sdir]) == 1
        assert "CORRUPT" in capsys.readouterr().out

    def test_compact(self, tmp_path, capsys):
        sdir = self.seed(tmp_path, capsys)
        assert main(["store", "compact", sdir]) == 0
        assert "compacted:" in capsys.readouterr().out
        assert main(["store", "verify", sdir]) == 0

    def test_compact_with_cap_evicts(self, tmp_path, capsys):
        sdir = self.seed(tmp_path, capsys)
        assert main(["store", "compact", sdir,
                     "--max-bytes", "1"]) == 0
        out = capsys.readouterr().out
        assert "kept 0" in out

    def test_inspect_missing_directory_fails(self, tmp_path):
        target = tmp_path / "file"
        target.write_text("x")
        with pytest.raises(SystemExit, match="store"):
            main(["store", "inspect", str(target)])


class TestSweepWithStore:
    def test_sweep_store_roundtrip(self, tmp_path, capsys):
        sdir = str(tmp_path / "store")
        argv = ["sweep", "--analyzers", "integrated", "--hops", "2",
                "--loads", "0.3,0.6", "--serial", "--store", sdir]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert main(argv) == 0
        warm = capsys.readouterr().out
        # identical point table; second run wrote nothing new
        assert cold.splitlines()[:3] == warm.splitlines()[:3]
        assert "0 new" in warm


class TestServeRecoverWithStore:
    def test_serve_then_warm_recover(self, tmp_path, capsys):
        jdir = str(tmp_path / "journal")
        sdir = str(tmp_path / "store")
        assert main(["serve", "--journal", jdir, "--hops", "3",
                     "--count", "3", "--store", sdir]) == 0
        capsys.readouterr()
        assert main(["recover", "--journal", jdir,
                     "--store", sdir]) == 0
        out = capsys.readouterr().out
        assert "bit-identical" in out
