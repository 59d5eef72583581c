"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
import time
from http.client import HTTPConnection

import pytest

from repro.cli import build_parser, main


def test_info_command(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "48384" in out
    assert "SRAM" in out


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_requires_command():
    with pytest.raises(SystemExit):
        main([])


def test_extract_case1(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out_file = tmp_path / "matrix.json"
    code = main(
        [
            "extract",
            "--case",
            "1",
            "--variant",
            "frw-rr",
            "--tolerance",
            "0.05",
            "--batch-size",
            "1500",
            "--threads",
            "2",
            "--output",
            str(out_file),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "walks=" in out
    assert "Err2=" in out
    data = json.loads(out_file.read_text())
    assert len(data["values"]) == 3  # three masters


def test_extract_max_masters(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    code = main(
        [
            "extract",
            "--case",
            "3",
            "--variant",
            "frw-r",
            "--tolerance",
            "0.2",
            "--batch-size",
            "1000",
            "--max-masters",
            "1",
        ]
    )
    assert code == 0
    assert "extracting 1 master(s)" in capsys.readouterr().out


def test_parser_rejects_unknown_case():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["extract", "--case", "9"])


def test_parser_experiment_choices():
    args = build_parser().parse_args(["experiment", "table1"])
    assert args.name == "table1"
    with pytest.raises(SystemExit):
        build_parser().parse_args(["experiment", "table9"])


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------

def test_serve_parser_defaults():
    args = build_parser().parse_args(["serve"])
    assert args.port == 8231
    assert args.slots == 1
    assert args.workers == 1
    assert not hasattr(args, "executor")  # the backend follows --workers


@pytest.mark.parametrize(
    "argv",
    [
        ["serve", "--slots", "0"],
        ["serve", "--workers", "0"],
        ["serve", "--result-cache", "0"],
        ["serve", "--asset-cache", "4"],  # the flag is gone
        ["serve", "--executor", "bogus"],  # the flag is gone
        ["serve", "--slots", "two"],
        ["serve", "--executor", "process"],  # --workers picks the backend
    ],
)
def test_serve_parser_rejects_invalid(argv):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2


def test_serve_rejects_invalid_settings(capsys):
    assert main(["serve", "--port", "70000"]) == 2
    assert "port" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:  # the flag is gone
        main(["serve", "--interactive-boost", "0.5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --interactive-boost" in capsys.readouterr().err


def test_serve_startup_shutdown_no_leaks(tmp_path):
    """Boot the real server via the CLI, drive one request, shut down,
    and verify nothing leaks: exit code 0, no surviving service or
    worker threads."""
    import threading
    import time

    from repro.geometry import structure_to_dict
    from repro.service import ServiceClient
    from repro.structures import parallel_wires

    port_file = tmp_path / "port"
    outcome = {}

    def run():
        outcome["code"] = main(
            ["serve", "--port", "0", "--port-file", str(port_file)]
        )

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    deadline = time.perf_counter() + 30
    while not port_file.exists() and time.perf_counter() < deadline:
        time.sleep(0.05)
    assert port_file.exists(), "server never wrote its port file"
    client = ServiceClient(port=int(port_file.read_text()))
    assert client.health()["ok"] is True
    structure = parallel_wires(
        n_wires=2, width=0.5, spacing=0.5, thickness=0.5, length=4.0
    )
    response = client.extract(
        structure,
        {"seed": 1, "max_walks": 256, "min_walks": 128, "batch_size": 128,
         "tolerance": 0.5, "n_threads": 2},
    )
    assert len(response["rows"]) == 2
    client.shutdown()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert outcome["code"] == 0
    leftovers = [
        t.name for t in threading.enumerate()
        if t.name.startswith(("repro-service", "repro-worker"))
    ]
    assert leftovers == []


def test_serve_exits_promptly_with_an_idle_keepalive_connection(tmp_path):
    """``python -m repro serve`` exits 0 within 5 s of POST /shutdown while
    another client holds an idle keep-alive connection (Python 3.12's
    ``Server.wait_closed()`` waits for every open connection), and
    writes nothing to stderr."""
    from repro.service import ServiceClient

    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    port_file = tmp_path / "port"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--port-file", str(port_file)],
        env={**os.environ, "PYTHONPATH": src},
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
    )
    idle = None
    try:
        deadline = time.perf_counter() + 60
        while not (port_file.exists() and port_file.read_text().endswith("\n")):
            assert proc.poll() is None and time.perf_counter() < deadline
            time.sleep(0.01)
        port = int(port_file.read_text())
        idle = HTTPConnection("127.0.0.1", port, timeout=30)
        idle.request("GET", "/health")
        response = idle.getresponse()
        assert response.getheader("Connection") == "keep-alive"
        response.read()
        with ServiceClient(port=port) as client:
            client.shutdown()
            t0 = time.perf_counter()
            _, stderr = proc.communicate(timeout=5)
        assert time.perf_counter() - t0 < 5
        assert proc.returncode == 0
        assert stderr == b""
    finally:
        if idle is not None:
            idle.close()
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
