"""CLI surface of the execution backend: ``--backend`` on run/batch,
the backend-verify line and auto fallback reporting."""

from __future__ import annotations

import json
import re

import pytest

from repro.cli import main

KERNEL = """
long A[1024], B[1024], C[1024];
void kernel(long i) {
    A[i + 0] = (B[i + 0] << 1) & (C[i + 0] << 2);
    A[i + 1] = (C[i + 1] << 3) & (B[i + 1] << 4);
}
"""


@pytest.fixture
def kernel_file(tmp_path):
    path = tmp_path / "kernel.c"
    path.write_text(KERNEL)
    return str(path)


class TestRunBackend:
    def test_compiled_matches_interp_output(self, kernel_file, capsys):
        base = ["run", kernel_file, "--arg", "i=4", "--dump", "A",
                "--dump-count", "8"]
        assert main(base) == 0
        interp_out = capsys.readouterr().out
        assert main(base + ["--backend", "compiled"]) == 0
        compiled_out = capsys.readouterr().out
        interp_dump = [l for l in interp_out.splitlines()
                       if l.startswith("@A")]
        compiled_dump = [l for l in compiled_out.splitlines()
                         if l.startswith("@A")]
        assert interp_dump == compiled_dump
        interp_cycles = [l for l in interp_out.splitlines()
                         if l.startswith("cycles")]
        compiled_cycles = [l for l in compiled_out.splitlines()
                           if l.startswith("cycles")]
        assert interp_cycles == compiled_cycles
        assert "backend: requested compiled, served by compiled" \
            in compiled_out

    def test_backend_verify_line(self, kernel_file, capsys):
        assert main(["run", kernel_file, "--arg", "i=4", "--verify",
                     "--verify-runs", "2",
                     "--backend", "compiled"]) == 0
        out = capsys.readouterr().out
        assert "backend-verify:" in out
        assert "identical" in out or "ok" in out

    def test_trace_falls_back_under_auto(self, kernel_file, capsys):
        assert main(["run", kernel_file, "--arg", "i=4", "--trace",
                     "--backend", "auto"]) == 0
        out = capsys.readouterr().out
        assert "served by interp (fell back: exec-hooks)" in out

    def test_trace_refused_under_compiled(self, kernel_file):
        with pytest.raises(SystemExit, match="exec-hooks"):
            main(["run", kernel_file, "--arg", "i=4", "--trace",
                  "--backend", "compiled"])

    def test_default_is_interp(self, kernel_file, capsys):
        assert main(["run", kernel_file, "--arg", "i=4"]) == 0
        out = capsys.readouterr().out
        assert "backend: requested" not in out


class TestBatchBackend:
    def test_batch_auto_with_verify(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        rc = main(["batch", "catalog", "--configs", "lslp",
                   "--backend", "auto", "--verify-runs", "1",
                   "--report-out", str(report)])
        assert rc == 0
        document = json.loads(report.read_text())
        jobs = document["jobs"]
        assert jobs and all(j["backend"] == "auto" for j in jobs)
        assert all(j["entry_backend"] in ("auto", "interp")
                   for j in jobs)

    def test_batch_auto_served_compiled(self, capsys):
        """What CI's backend job asserts: under ``auto`` no catalog job
        falls back to the interpreter (no ``backend`` remark)."""
        rc = main(["batch", "catalog", "--configs", "lslp",
                   "--backend", "auto", "--verify-runs", "2",
                   "--remarks"])
        assert rc == 0
        out = capsys.readouterr().out
        fallbacks = [line for line in out.splitlines()
                     if re.match(r"; \w+: backend\b", line)]
        assert not fallbacks, fallbacks

    def test_batch_backend_changes_cache_keys(self, capsys):
        rc = main(["batch", "catalog", "--configs", "lslp",
                   "--backend", "compiled"])
        assert rc == 0
        capsys.readouterr()
        # same catalog under a different backend: cold again (the
        # backend is a cache-key ingredient), served by the shed round
        rc = main(["batch", "catalog", "--configs", "lslp",
                   "--backend", "interp"])
        assert rc == 0

