"""Flat key=value experiment configuration.

Config files are plain text: one ``key = value`` per line, ``#`` starts a
comment (full-line or trailing), blank lines ignored.  ``--override key=value``
on the command line wins over the file.  A key set twice in the file, or
twice among the overrides, is an error.  Unknown keys are an error that lists
the valid ones.  An empty file runs the full default experiment.

``ExperimentConfig`` is the one config record: every layer reads its keys by
name.  The README's config table lists each key with its default and
meaning.  Constructing a config validates it, so every config in the program
is a valid one.  Each value is checked once, where it enters: a key here, a
file in the IDX reader and ``Dataset``, the data against the config in
``cli.build_data``.  The layers below trust what they are given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .correction import CORRECTION_MODES
from .dp import SAMPLING_MODES, SENSITIVITY, epsilon_spent, steps_for_budget
from .federation import ALGORITHMS
from .model import MlpSpec


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(f"expected true/false, got {raw!r}")


def _parse_int_list(raw: str) -> tuple[int, ...]:
    """Comma-separated ints; an empty value is the empty tuple, and an
    empty item an error."""
    if not raw.strip():
        return ()
    parts = [p.strip() for p in raw.split(",")]
    if "" in parts:
        raise ValueError("empty item in the comma list")
    return tuple(int(p) for p in parts)


@dataclass(frozen=True)
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
    label_split: str = ""
    layer_sizes: tuple[int, ...] = ()
    n_clients: int = 2
    clients_per_round: int = 0
    rounds: int = 30
    local_steps: int = 1
    eta: float = 0.002
    batch_size: int = 32
    sampling_mode: str = "fixed_size"
    algorithm: str = "gcfl"
    prox_mu: float = 0.01
    sigma: float = 0.8
    clip_threshold: float = 1.5
    delta: float = 1e-5
    epsilon_budget: float = 0.0
    correction_mode: str = "reference"
    num_references: int = 0
    seeds: tuple[int, ...] = (1, 2, 3)
    record_timing: bool = True

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        """Check every key's value, then the rules that join keys.

        Each message names the key at fault.  A budget too small for even the
        first round is rejected here too, before any data is made.
        """
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type != "float" or math.isfinite(value):
                continue
            if f.name != "epsilon_budget":
                raise ValueError(f"{f.name} must be finite, got {value!r}")
            if value != math.inf:  # inf is the one non-finite budget: none
                raise ValueError(f"epsilon_budget must be finite or inf, got {value!r}")
        if self.dataset not in ("synthetic", "idx"):
            raise ValueError(f"dataset must be synthetic or idx, got {self.dataset!r}")
        paths = ("train_images", "train_labels", "test_images", "test_labels")
        unset = [name for name in paths if not getattr(self, name)]
        if self.dataset == "idx" and unset:
            raise ValueError(f"dataset=idx requires paths for: {', '.join(unset)}")
        if self.dataset == "synthetic" and len(unset) < len(paths):
            name = next(name for name in paths if name not in unset)
            raise ValueError(f"{name} is set, but dataset=synthetic reads no IDX file")
        if self.synthetic_classes < 2:
            raise ValueError("synthetic_classes must be >= 2")
        if self.synthetic_per_class < 1:
            raise ValueError("synthetic_per_class must be >= 1")
        if self.synthetic_dim < 1:
            raise ValueError("synthetic_dim must be >= 1")
        if self.synthetic_spread < 0:
            raise ValueError("synthetic_spread must be >= 0")
        for name in ("subsample_train", "subsample_test"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0 (0 keeps everything)")
        if self.layer_sizes:
            try:
                MlpSpec(self.layer_sizes)
            except ValueError as exc:
                raise ValueError(f"layer_sizes: {exc}") from None
        if self.n_clients < 1:
            raise ValueError("n_clients must be >= 1")
        if not 0 <= self.clients_per_round <= self.n_clients:
            raise ValueError(
                f"clients_per_round must be in [0, n_clients={self.n_clients}]"
            )
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.local_steps < 1:
            raise ValueError("local_steps must be >= 1")
        if self.eta <= 0:
            raise ValueError("eta: learning_rate must be > 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.sampling_mode not in SAMPLING_MODES:
            raise ValueError(
                f"sampling_mode must be one of {SAMPLING_MODES}, "
                f"got {self.sampling_mode!r}"
            )
        if self.algorithm not in ALGORITHMS:
            raise ValueError(
                f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}"
            )
        if self.prox_mu < 0:
            raise ValueError("prox_mu must be >= 0")
        if self.sigma < 0:
            raise ValueError("sigma: noise_multiplier must be >= 0")
        charged = self.charged_sigma()  # the accountant divides by its square
        if self.sigma and not 0 < charged * charged < math.inf:
            raise ValueError(
                f"sigma: noise_multiplier = {self.sigma} is out of the accountant's "
                "range: (sigma / sensitivity)**2 must be a finite float > 0"
            )
        if self.clip_threshold <= 0:
            raise ValueError("clip_threshold must be > 0")
        if not 0 < self.delta < 1:
            raise ValueError("delta must be in (0, 1)")
        if self.epsilon_budget < 0:
            raise ValueError("epsilon_budget must be >= 0")
        if self.correction_mode not in CORRECTION_MODES:
            raise ValueError(
                f"correction_mode must be one of {CORRECTION_MODES}, "
                f"got {self.correction_mode!r}"
            )
        if self.num_references < 0:
            raise ValueError("num_references must be >= 0 (0 means auto)")
        if not self.seeds:
            raise ValueError("seeds must list at least one seed")
        if any(s < 0 for s in self.seeds):
            raise ValueError("seeds must be >= 0")
        repeated = next((s for s in self.seeds if self.seeds.count(s) > 1), None)
        if repeated is not None:
            raise ValueError(f"seeds: {repeated} is listed twice")
        per_round = self.clients_per_round or self.n_clients
        if self.num_references >= per_round > 1:
            raise ValueError(
                f"num_references = {self.num_references} must be < {per_round}, the "
                "clients in a round (clients_per_round, or n_clients if it is 0)"
            )
        if self.label_split:  # empty: an iid split
            try:
                groups = parse_label_split(self.label_split)
            except ValueError as exc:
                raise ValueError(f"label_split: {exc}") from None
            if len(groups) != self.n_clients:
                raise ValueError(
                    f"label_split defines {len(groups)} groups "
                    f"but n_clients is {self.n_clients}"
                )
        if self.sigma == 0 and 0 < self.epsilon_budget < math.inf:
            raise ValueError(
                "epsilon_budget: noise_multiplier must be > 0: "
                "sigma == 0 has infinite privacy cost"
            )
        try:
            allowed = self.budget_steps()
        except ValueError as exc:  # below the floor or above the cap
            raise ValueError(f"epsilon_budget: {exc}") from None
        if allowed is not None and allowed < self.local_steps:
            raise ValueError(
                f"epsilon_budget = {self.epsilon_budget} allows {allowed} noisy "
                f"steps, fewer than one round's local_steps = {self.local_steps}"
            )

    def charged_sigma(self) -> float:
        """The noise multiplier the accountant charges a step at: sigma / s,
        for noise sigma C at sensitivity s C, s set by the sampling mode
        (``dp.SENSITIVITY``).  Dividing by 1 or 2 is exact."""
        return self.sigma / SENSITIVITY[self.sampling_mode]

    def budget_steps(self) -> int | None:
        """The noisy steps epsilon_budget allows, or None for no budget (0 or inf)."""
        if not 0 < self.epsilon_budget < math.inf:
            return None
        return steps_for_budget(self.charged_sigma(), self.delta, self.epsilon_budget)

    def budget_rounds(self) -> int | None:
        """The full rounds epsilon_budget allows, or None for no budget."""
        allowed = self.budget_steps()
        return None if allowed is None else allowed // self.local_steps

    def rounds_run(self) -> int:
        """The rounds a run takes: rounds, cut to the budget's full rounds."""
        allowed = self.budget_rounds()
        return self.rounds if allowed is None else min(self.rounds, allowed)

    def epsilon_after(self, rounds: int) -> tuple[float, float | None]:
        """(epsilon, its Renyi order) after the given rounds, each of which
        releases local_steps steps on each participant's disjoint shard;
        (inf, None) at sigma = 0: no noise, nothing is private."""
        if self.sigma == 0:
            return math.inf, None
        steps = rounds * self.local_steps
        return epsilon_spent(steps, self.charged_sigma(), self.delta)

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
    "str": str,
    "int": int,
    "float": float,
    "bool": _parse_bool,
    "tuple[int, ...]": _parse_int_list,
}

# key -> parser of its values, by the field's annotation string
_REGISTRY = {f.name: _PARSERS[f.type] for f in fields(ExperimentConfig)}


def _parse_value(key: str, raw: str, where: str):
    if key not in _REGISTRY:
        valid = ", ".join(sorted(_REGISTRY))
        raise ValueError(f"unknown config key {key!r} ({where}); valid keys: {valid}")
    try:
        return _REGISTRY[key](raw)
    except ValueError as exc:
        raise ValueError(
            f"invalid value for {key} ({where}): {raw!r} ({exc})"
        ) from None


def parse_config(path: str, overrides: list[str] | None = None) -> ExperimentConfig:
    """Read a key=value file, apply overrides, and build the validated config.

    A key may appear once in the file and once among the overrides; an
    override replaces the file's value."""
    values: dict[str, object] = {}
    set_on: dict[str, int] = {}  # the file line each key was read from
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ValueError(
                    f"{path}:{lineno}: expected 'key = value', got {line.rstrip()!r}"
                )
            key, raw = (part.strip() for part in stripped.split("=", 1))
            if key in set_on:
                raise ValueError(
                    f"{path}:{lineno}: {key} is set again; line {set_on[key]} "
                    "set it first"
                )
            set_on[key] = lineno
            values[key] = _parse_value(key, raw, f"{path}:{lineno}")
    overridden: set[str] = set()
    for item in overrides or []:
        if "=" not in item:
            raise ValueError(f"override must look like key=value, got {item!r}")
        key, raw = (part.strip() for part in item.split("=", 1))
        if key in overridden:
            raise ValueError(f"--override: {key} is set twice")
        overridden.add(key)
        values[key] = _parse_value(key, raw, "--override")
    return ExperimentConfig(**values)


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
