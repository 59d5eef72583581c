"""Shared experiment infrastructure: run records and result persistence."""

from __future__ import annotations

import json
import platform
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from ..config import FRWConfig
from ..errors import ConfigError
from ..frw.parallel import checkpoint_walks

#: Default directory for experiment outputs.
RESULTS_DIR = Path("results")


def paper_config(variant: str, **kwargs) -> FRWConfig:
    """The paper's setup of ``variant``: independent walks, no antithetic
    pairs, and Alg. 2's batches of the batch size ``B`` (``min_walks``
    defaults to ``batch_size``, so ``b0`` is ``B``).  Table II's RI study
    needs the virtual-thread merge replay, which paired accumulation
    skips, and every table keeps the sampling the paper measured."""
    cfg = FRWConfig.for_variant(variant, antithetic=False, **kwargs)
    if "min_walks" not in kwargs:
        cfg = cfg.with_(min_walks=cfg.batch_size)
    if checkpoint_walks(cfg) != cfg.batch_size:
        raise ConfigError(
            f"paper experiments keep the fixed batch size: min_walks "
            f"({cfg.min_walks}) must be >= batch_size / 2 "
            f"({cfg.batch_size / 2:g})"
        )
    return cfg


@dataclass
class ExperimentRecord:
    """A completed experiment: identifier, parameters, tabular payload."""

    experiment: str
    params: dict
    headers: list[str]
    rows: list[list]
    notes: list[str] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    environment: dict = field(default_factory=dict)

    def save(self, directory: Path | str = RESULTS_DIR) -> Path:
        """Persist as JSON under the results directory."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{self.experiment}.json"
        path.write_text(json.dumps(asdict(self), indent=1, default=str))
        return path

    @classmethod
    def load(cls, experiment: str, directory: Path | str = RESULTS_DIR) -> "ExperimentRecord":
        data = json.loads((Path(directory) / f"{experiment}.json").read_text())
        return cls(**data)


def environment_info() -> dict:
    """Machine/environment snapshot stored with each record."""
    import numpy

    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        # det: allow(DET002) intentional wall-clock: record *metadata* saying
        # when the experiment ran; never feeds seeds or numeric results.
        "timestamp": time.strftime("%Y-%m-%d %H:%M:%S"),
    }


class Stopwatch:
    """Tiny context-manager stopwatch."""

    def __enter__(self) -> "Stopwatch":
        self._start = time.perf_counter()
        self.elapsed = 0.0
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed = time.perf_counter() - self._start
