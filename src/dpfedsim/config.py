"""Flat key=value experiment configuration.

Config files are plain text: one ``key = value`` per line, ``#`` starts a
comment (full-line or trailing), blank lines ignored.  ``--override key=value``
on the command line wins over the file.  Unknown keys are an error that lists
the valid ones.  An empty file runs the full default experiment.

Keys (defaults in parentheses):

  dataset (synthetic)            synthetic | idx
  train_images/train_labels ('') IDX paths, required when dataset=idx
  test_images/test_labels ('')   IDX paths, required when dataset=idx
  synthetic_classes (10)         blob generator shape
  synthetic_per_class (100)
  synthetic_dim (32)
  synthetic_spread (0.25)
  subsample_train (0)            0 = keep all; else stratified subsample size
  subsample_test (0)
  partition (iid)                iid | label_split
  label_split (0-4;5-9)          ;-separated label groups, e.g. 0,1;2-5;6-9
  layer_sizes ('')               comma list; '' = input_dim,128,num_classes
  n_clients (2)
  clients_per_round (0)          0 = every client participates
  rounds (30)
  local_steps (1)
  eta (0.002)                    client and server learning rate
  batch_size (32)                0 = use sampling_rate instead
  sampling_rate (0.0)            per-step sampling fraction when batch_size=0
  sampling_mode (fixed_size)     fixed_size | poisson
  eval_batch_size (1024)
  algorithm (gcfl)               gcfl | dp_fedavg | dp_fedprox | dp_scaffold |
                                 dp_fedexp | isolated
  weighting (uniform)            uniform | by_samples
  prox_mu (0.01)
  sigma (0.8)                    Gaussian noise multiplier
  clip_threshold (1.5)
  delta (1e-5)
  epsilon_budget (0.0)           0 = no early privacy stop
  correction_mode (reference)    reference | pairwise
  num_references (0)             0 = max(1, n_clients // 2)
  order_seed (0)
  seeds (1,2,3)                  comma list of run seeds
  record_timing (true)           false writes wall_ms as 0 (reproducible files)
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .correction import CorrectionConfig
from .dp import DpConfig, steps_for_budget
from .federation import FederationConfig
from .model import MlpSpec


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(f"expected true/false, got {raw!r}")


def _parse_int_list(raw: str) -> tuple[int, ...]:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    return tuple(int(p) for p in parts)


@dataclass
class ExperimentConfig:
    dataset: str = "synthetic"
    train_images: str = ""
    train_labels: str = ""
    test_images: str = ""
    test_labels: str = ""
    synthetic_classes: int = 10
    synthetic_per_class: int = 100
    synthetic_dim: int = 32
    synthetic_spread: float = 0.25
    subsample_train: int = 0
    subsample_test: int = 0
    partition: str = "iid"
    label_split: str = "0-4;5-9"
    layer_sizes: tuple[int, ...] = ()
    n_clients: int = 2
    clients_per_round: int = 0
    rounds: int = 30
    local_steps: int = 1
    eta: float = 0.002
    batch_size: int = 32
    sampling_rate: float = 0.0
    sampling_mode: str = "fixed_size"
    eval_batch_size: int = 1024
    algorithm: str = "gcfl"
    weighting: str = "uniform"
    prox_mu: float = 0.01
    sigma: float = 0.8
    clip_threshold: float = 1.5
    delta: float = 1e-5
    epsilon_budget: float = 0.0
    correction_mode: str = "reference"
    num_references: int = 0
    order_seed: int = 0
    seeds: tuple[int, ...] = (1, 2, 3)
    record_timing: bool = True

    def validate(self) -> None:
        """Check the dataset, partition, seed and cross-field rules.

        Every other key feeds one sub-config, whose constructor checks it:
        building them here reports a bad value before any data is made.  So
        does an epsilon budget too small for even the first round.
        """
        if self.dataset not in ("synthetic", "idx"):
            raise ValueError(f"dataset must be synthetic or idx, got {self.dataset!r}")
        if self.dataset == "idx":
            missing = [
                name
                for name in ("train_images", "train_labels", "test_images", "test_labels")
                if not getattr(self, name)
            ]
            if missing:
                raise ValueError(
                    f"dataset=idx requires paths for: {', '.join(missing)}"
                )
        if self.synthetic_classes < 2:
            raise ValueError("synthetic_classes must be >= 2")
        if self.synthetic_per_class < 1:
            raise ValueError("synthetic_per_class must be >= 1")
        if self.synthetic_dim < 1:
            raise ValueError("synthetic_dim must be >= 1")
        if self.synthetic_spread < 0:
            raise ValueError("synthetic_spread must be >= 0")
        if self.subsample_train < 0 or self.subsample_test < 0:
            raise ValueError("subsample sizes must be >= 0 (0 keeps everything)")
        if self.partition not in ("iid", "label_split"):
            raise ValueError(
                f"partition must be iid or label_split, got {self.partition!r}"
            )
        if not self.seeds:
            raise ValueError("seeds must list at least one seed")
        if any(s < 0 for s in self.seeds):
            raise ValueError("seeds must be >= 0")
        if self.layer_sizes:
            MlpSpec(self.layer_sizes)
        per_round = self.clients_per_round or self.n_clients
        if self.num_references >= per_round > 1:
            raise ValueError(
                f"num_references = {self.num_references} must be < {per_round}, the "
                "clients in a round (clients_per_round, or n_clients if it is 0)"
            )
        if self.partition == "label_split":
            groups = parse_label_split(self.label_split)
            if len(groups) != self.n_clients:
                raise ValueError(
                    f"label_split defines {len(groups)} groups "
                    f"but n_clients is {self.n_clients}"
                )
        dp_cfg, _, _ = self.sub_configs(self.seeds[0])
        if self.epsilon_budget > 0 and self.sigma > 0:
            try:
                allowed = steps_for_budget(dp_cfg, self.epsilon_budget)
            except ValueError as exc:  # below the conversion floor
                raise ValueError(f"epsilon_budget: {exc}") from None
            if allowed < self.local_steps:
                raise ValueError(
                    f"epsilon_budget = {self.epsilon_budget} allows {allowed} noisy "
                    f"steps, fewer than one round's local_steps = {self.local_steps}"
                )

    def sub_configs(
        self, seed: int
    ) -> tuple[DpConfig, FederationConfig, CorrectionConfig]:
        """The mechanism, federation and correction configs for one run seed."""
        dp_cfg = DpConfig(
            clip_threshold=self.clip_threshold,
            noise_multiplier=self.sigma,
            sampling_rate=self.sampling_rate,
            delta=self.delta,
            sampling_mode=self.sampling_mode,
            batch_size=self.batch_size,
        )
        fed_cfg = FederationConfig(
            n_clients=self.n_clients,
            clients_per_round=self.clients_per_round,
            rounds=self.rounds,
            local_steps=self.local_steps,
            learning_rate=self.eta,
            algorithm=self.algorithm,
            weighting=self.weighting,
            prox_mu=self.prox_mu,
            global_seed=seed,
            epsilon_budget=self.epsilon_budget,
            record_timing=self.record_timing,
            eval_batch_size=self.eval_batch_size,
        )
        corr_cfg = CorrectionConfig(
            mode=self.correction_mode,
            num_references=self.num_references,
            order_seed=self.order_seed,
        )
        return dp_cfg, fed_cfg, corr_cfg

    def resolved(self) -> dict:
        """Plain-serializable view of every key's final value."""
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, tuple):
                v = ",".join(str(x) for x in v)
            out[f.name] = v
        return out


_PARSERS = {
    str: lambda raw: raw,
    int: lambda raw: int(raw),
    float: lambda raw: float(raw),
    bool: _parse_bool,
    tuple: _parse_int_list,
}


def _field_registry() -> dict[str, type]:
    reg: dict[str, type] = {}
    for f in fields(ExperimentConfig):
        origin = f.type
        if origin.startswith("tuple"):
            reg[f.name] = tuple
        elif origin == "bool":
            reg[f.name] = bool
        elif origin == "int":
            reg[f.name] = int
        elif origin == "float":
            reg[f.name] = float
        else:
            reg[f.name] = str
    return reg


_REGISTRY = _field_registry()


def _assign(cfg: ExperimentConfig, key: str, raw: str, where: str) -> None:
    if key not in _REGISTRY:
        valid = ", ".join(sorted(_REGISTRY))
        raise ValueError(f"unknown config key {key!r} ({where}); valid keys: {valid}")
    kind = _REGISTRY[key]
    try:
        value = _PARSERS[kind](raw)
    except ValueError as exc:
        raise ValueError(
            f"invalid value for {key} ({where}): {raw!r} ({exc})"
        ) from None
    setattr(cfg, key, value)


def parse_config(path: str, overrides: list[str] | None = None) -> ExperimentConfig:
    """Read a key=value file, apply overrides, validate, and return the config."""
    cfg = ExperimentConfig()
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ValueError(
                    f"{path}:{lineno}: expected 'key = value', got {line.rstrip()!r}"
                )
            key, raw = stripped.split("=", 1)
            _assign(cfg, key.strip(), raw.strip(), f"{path}:{lineno}")
    for item in overrides or []:
        if "=" not in item:
            raise ValueError(f"override must look like key=value, got {item!r}")
        key, raw = item.split("=", 1)
        _assign(cfg, key.strip(), raw.strip(), "--override")
    cfg.validate()
    return cfg


def parse_label_split(raw: str) -> list[set[int]]:
    """'0-4;5,7;6,8-9' -> [{0..4}, {5,7}, {6,8,9}]."""
    groups: list[set[int]] = []
    for segment in raw.split(";"):
        segment = segment.strip()
        if not segment:
            raise ValueError(f"empty label group in {raw!r}")
        group: set[int] = set()
        for piece in segment.split(","):
            piece = piece.strip()
            if "-" in piece:
                lo_s, hi_s = piece.split("-", 1)
                lo, hi = int(lo_s), int(hi_s)
                if hi < lo:
                    raise ValueError(f"bad label range {piece!r}")
                group.update(range(lo, hi + 1))
            else:
                group.add(int(piece))
        groups.append(group)
    return groups
