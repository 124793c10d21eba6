"""Age-fitness Pareto evolutionary engine.

Selection treats each individual as a (maximize fitness, minimize age)
point. Every generation each survivor produces one mutated offspring
(inheriting its parent's age), one random age-0 individual is injected,
survivor ages increment, and truncation over Pareto layers keeps the
population at its fixed size. Offspring mutate either the body or the
controller with equal probability; for fixed controllers the controller
branch degenerates into a verbatim copy.

Randomness is drawn from per-individual streams derived from
(master seed, individual id), so evaluation order can never change a
run's outcome, and a checkpoint only needs the seed and the next id to
resume exactly. A checkpoint records the engine version whose fitnesses it
holds, and resumes under that engine only.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
from dataclasses import dataclass, field, fields, asdict

import numpy as np

from .control import PARAMS_KEY, VARIANTS, ControllerGenome, init_controller, mutate_controller
from .morphology import InvalidMorphologyError, Morphology, mutate_morphology, random_morphology, validity_report
from .sim_core import ENGINE_VERSION
from .tasks import EpisodeEvaluator, terrain_by_name
from .terrain import ENVIRONMENTS

POPULATION_SIZE = 16
BODY_MUTATION_PROBABILITY = 0.5


class ConfigError(ValueError):
    """A run configuration is malformed."""


@dataclass
class Individual:
    """One unit of selection: a body, a controller, an age, a score.

    Its checkpoint record holds the controller's own record, which
    ``ControllerGenome.to_json`` writes and ``ControllerGenome.from_json``
    reads.
    """

    id: int
    morphology: Morphology
    controller: ControllerGenome
    age: int = 0
    fitness: float | None = None
    parent_id: int | None = None
    mutated_component: str | None = None  # "body" | "brain" for offspring

    def set_fitness(self, value: float) -> None:
        if self.fitness is not None:
            raise RuntimeError(f"individual {self.id} already evaluated; re-evaluation forbidden")
        if not np.isfinite(value):
            raise ValueError(f"fitness must be finite, got {value!r}")
        self.fitness = float(value)

    def to_json(self) -> dict:
        """The checkpoint record."""
        return {
            "id": self.id,
            "morphology": self.morphology.to_json(),
            "controller": self.controller.to_json(),
            "age": self.age,
            "fitness": self.fitness,
            "parent_id": self.parent_id,
            "mutated_component": self.mutated_component,
        }

    @staticmethod
    def from_json(data: dict) -> "Individual":
        """Decode a checkpoint record."""
        ind = Individual(
            id=data["id"],
            morphology=Morphology.from_json(data["morphology"]),
            controller=ControllerGenome.from_json(data["controller"]),
            age=data["age"],
            parent_id=data.get("parent_id"),
            mutated_component=data.get("mutated_component"),
        )
        ind.fitness = data.get("fitness")
        return ind


@dataclass
class Population:
    members: list[Individual]
    generation: int
    next_id: int


@dataclass(frozen=True)
class RunConfig:
    """One evolutionary run's settings."""

    environment: str = "walker"
    height: int = 5
    width: int = 5
    controller: str = "fixed"
    generations: int = 300
    population_size: int = POPULATION_SIZE
    seed: int = 0
    checkpoint_interval: int = 50
    output_dir: str | None = None
    freeze_body_path: str | None = None

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None and f.default is None:
                continue  # an optional path left unset
            kind = str if f.default is None else type(f.default)
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ConfigError(f"{f.name} must be {'an integer' if kind is int else 'a string'}, got {value!r}")
        if self.environment not in ENVIRONMENTS:
            raise ConfigError(f"environment must be one of {tuple(ENVIRONMENTS)}, got {self.environment!r}")
        if self.controller not in VARIANTS:
            raise ConfigError(f"controller must be one of {VARIANTS}, got {self.controller!r}")
        if self.height < 1 or self.width < 1:
            raise ConfigError("morphology space must be at least 1x1")
        if self.generations < 0:
            raise ConfigError("generations must be >= 0")
        if self.population_size < 2:
            raise ConfigError("population size must be >= 2")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.checkpoint_interval < 1:
            raise ConfigError("checkpoint interval must be >= 1")
        try:
            terrain_by_name(self.environment, (self.height, self.width))
        except ValueError as exc:  # the morphology space does not fit the terrain
            raise ConfigError(str(exc))

    def setting_name(self) -> str:
        """The setting's label: the environment's letter and the morphology
        space, ``W5`` for a square 5x5 one and ``W5x7`` for a 5x7 one."""
        size = self.height if self.height == self.width else f"{self.height}x{self.width}"
        return f"{ENVIRONMENTS[self.environment]}{size}"

    def fingerprint(self, frozen_body: Morphology | None = None) -> str:
        """The hash that ties checkpoints, champion run ids and cached runs to
        this config and to the body a run trains, if it freezes one.

        ``evolve`` passes the frozen body it trains, resolved once per run.
        Without one, the body named by ``freeze_body_path`` is read; that is
        for callers outside a run, which hold only the config. Every field
        is hashed but where the run writes and the body file's path, for
        which the body's own hash stands.
        """
        if frozen_body is None and self.freeze_body_path is not None:
            frozen_body, _ = load_body_file(self.freeze_body_path)
        payload = asdict(self)
        del payload["output_dir"], payload["freeze_body_path"]
        payload["freeze_body"] = None if frozen_body is None else hashlib.sha256(frozen_body.cells.tobytes()).hexdigest()
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def to_json(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_json(data: dict) -> "RunConfig":
        known = {f for f in RunConfig.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        return RunConfig(**data)


def load_body_file(path: str) -> tuple[Morphology, str | None]:
    """The valid body in a body file, and the ``run_id`` of its wrapper.

    The file holds a bare morphology JSON or a champion wrapper
    (``{"run_id": ..., "morphology": {...}}``); a bare body has no run id.
    The file is opened and parsed once. Any failure, from a missing file to
    a body that breaks the validity rules, is a ConfigError naming the file.
    """
    try:
        with open(path) as fh:
            data = json.load(fh)
        run_id = None
        if isinstance(data, dict) and "morphology" in data:
            run_id = data.get("run_id")
            data = data["morphology"]
        if not isinstance(data, dict):
            raise InvalidMorphologyError("a body file must hold a JSON object")
        body = Morphology.from_json(data)
    except (OSError, ValueError, KeyError) as exc:  # JSONDecodeError is a ValueError
        raise ConfigError(f"cannot load body from {path}: {exc}")
    ok, reason = validity_report(body)
    if not ok:
        raise ConfigError(f"body in {path} is invalid: {reason}")
    return body, run_id


def _frozen_body(config: RunConfig, frozen_body: Morphology | None) -> Morphology | None:
    """The body a run trains: the one given, else one read of the config's
    path, else None. A body the run cannot train is a ConfigError."""
    if frozen_body is None:
        if config.freeze_body_path is None:
            return None
        frozen_body, _ = load_body_file(config.freeze_body_path)
    else:
        ok, reason = validity_report(frozen_body)
        if not ok:
            raise ConfigError(f"frozen body is invalid: {reason}")
    if (frozen_body.h, frozen_body.w) != (config.height, config.width):
        raise ConfigError(
            f"frozen body is {frozen_body.h}x{frozen_body.w}, "
            f"but the config's morphology space is {config.height}x{config.width}"
        )
    if config.controller == "fixed":
        raise ConfigError("a frozen body needs the modular controller: the fixed one has nothing to optimise")
    return frozen_body


def individual_rng(master_seed: int, individual_id: int) -> np.random.Generator:
    """The private stream that fully determines one individual's randomness."""
    return np.random.default_rng([master_seed, individual_id])


def dominates(a: tuple[float, int], b: tuple[float, int]) -> bool:
    """Pareto dominance for (fitness, age): fitness up, age down, one strict."""
    fa, aa = a
    fb, ab = b
    return fa >= fb and aa <= ab and (fa > fb or aa < ab)


def _truncation_key(ind: Individual):
    return (-ind.fitness, ind.age, ind.id)


def truncation_select(members: list[Individual], keep: int) -> list[Individual]:
    """Fill with non-dominated fronts, peeled in turn until ``keep`` are
    chosen; break ties inside the cut front by fitness desc, then age asc,
    then id asc. Output is sorted by the same key.

    The fronts are built in one pass over the members in that order, in
    which every member's dominators come before it. With two objectives, a
    front's last member so far is its youngest, and it dominates a later
    member whenever any member of the front does. So each member joins the
    first front whose last member does not dominate it, and every front
    comes out already in key order.
    """
    fronts: list[list[Individual]] = []
    for m in sorted(members, key=_truncation_key):
        for front in fronts:
            last = front[-1]
            if not dominates((last.fitness, last.age), (m.fitness, m.age)):
                front.append(m)
                break
        else:
            fronts.append([m])
    chosen: list[Individual] = []
    for front in fronts:
        if len(chosen) >= keep:
            break
        chosen.extend(front[: keep - len(chosen)])
    return sorted(chosen, key=_truncation_key)


def make_offspring(
    parent: Individual,
    rng: np.random.Generator,
    freeze_body: bool = False,
    *,
    child_id: int,
) -> Individual:
    """Mutate one component of the parent; the child inherits its age.

    The first draw from ``rng`` picks the component (body with probability
    0.5) unless freeze_body forces the controller branch. Fixed-controller
    parents drawing the controller branch yield an exact genotypic copy.
    """
    if parent.fitness is None:
        raise ValueError("parent must be evaluated before reproducing")
    mutate_body = (not freeze_body) and rng.random() < BODY_MUTATION_PROBABILITY
    if mutate_body:
        child_morph = mutate_morphology(parent.morphology, rng)
        child_ctrl = parent.controller
        component = "body"
    else:
        child_morph = parent.morphology
        child_ctrl = mutate_controller(parent.controller, rng)
        component = "brain"
    return Individual(
        id=child_id,
        morphology=child_morph,
        controller=child_ctrl,
        age=parent.age,
        parent_id=parent.id,
        mutated_component=component,
    )


def _newcomer(seed: int, ind_id: int, config: RunConfig, frozen_body: Morphology | None) -> Individual:
    """A fresh age-0 individual from its own stream: the frozen body or a
    random one, then a new controller, drawn in that order."""
    rng = individual_rng(seed, ind_id)
    morph = frozen_body if frozen_body is not None else random_morphology(config.height, config.width, rng)
    return Individual(id=ind_id, morphology=morph, controller=init_controller(config.controller, rng), age=0)


def make_initial_population(config: RunConfig, frozen_body: Morphology | None = None) -> Population:
    members = [_newcomer(config.seed, i, config, frozen_body) for i in range(config.population_size)]
    return Population(members=members, generation=0, next_id=config.population_size)


def _evaluate_members(members: list[Individual], evaluator) -> None:
    todo = [m for m in members if m.fitness is None]
    if not todo:
        return
    fits = evaluator.fitness_many([(m.morphology, m.controller) for m in todo])
    for m, fit in zip(todo, fits):
        m.set_fitness(fit)


def advance_generation(
    pop: Population,
    evaluator,
    config: RunConfig,
    frozen_body: Morphology | None = None,
) -> Population:
    """One full AFPO generation: reproduce, inject, evaluate, age, select."""
    survivors = pop.members
    next_id = pop.next_id

    children = []
    for parent in survivors:
        rng = individual_rng(config.seed, next_id)
        children.append(
            make_offspring(parent, rng, freeze_body=frozen_body is not None, child_id=next_id)
        )
        next_id += 1

    injectee = _newcomer(config.seed, next_id, config, frozen_body)
    next_id += 1

    _evaluate_members(children + [injectee], evaluator)
    for survivor in survivors:
        survivor.age += 1

    pool = survivors + children + [injectee]
    selected = truncation_select(pool, config.population_size)
    return Population(members=selected, generation=pop.generation + 1, next_id=next_id)


@dataclass
class GenerationStats:
    generation: int
    best_fitness: float
    mean_fitness: float
    best_age: int
    champion_id: int

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class RunResult:
    """Everything one evolutionary run produced."""

    config: RunConfig
    fingerprint: str
    stats: list[GenerationStats]
    champion: Individual          # highest fitness ever evaluated
    snapshots: list[tuple[int, Individual]]
    final_population: Population
    frozen_body: Morphology | None  # the body trained, if the run froze one


def _population_stats(pop: Population, champion: Individual) -> GenerationStats:
    best = min(pop.members, key=_truncation_key)
    mean = float(np.mean([m.fitness for m in pop.members]))
    return GenerationStats(
        generation=pop.generation,
        best_fitness=best.fitness,
        mean_fitness=mean,
        best_age=best.age,
        champion_id=champion.id,
    )


def _update_champion(champion: Individual | None, candidates: list[Individual]) -> Individual:
    for cand in candidates:
        if champion is None or cand.fitness > champion.fitness:
            champion = cand
    return champion


def _stats_text(row: GenerationStats) -> str:
    return json.dumps(row.to_json())


def _snapshot_text(generation: int, ind: Individual) -> str:
    return f"[{json.dumps(generation)}, {_record_text(ind)}]"


def _record_text(ind: Individual) -> str:
    """``json.dumps(ind.to_json())``, with the parameters' base64 text put
    in as it is: its alphabet holds no character JSON escapes, so the
    encoder need not scan its 25.6 KB for one."""
    record = ind.to_json()
    controller = record["controller"]
    record["controller"] = None  # after the id and the body, whose values hold no string
    params = f'{{"variant": {json.dumps(controller["variant"])}, "{PARAMS_KEY}": "{controller[PARAMS_KEY]}"}}'
    return json.dumps(record).replace('"controller": null', f'"controller": {params}', 1)


def save_checkpoint(
    path, pop: Population, champion: Individual, stats_text, snapshots_text, config: RunConfig, fingerprint: str
) -> None:
    """Replace the checkpoint at ``path`` atomically with the run's state.

    ``stats_text`` and ``snapshots_text`` hold the JSON text of each stats
    row and each snapshot, encoded once when the run added it; only the
    population and the champion are encoded here. Controller parameters
    are stored as bytes (``ControllerGenome.to_json``). The file's text is
    what ``json.dump`` writes for the decoded payload.
    """
    parts = {
        "generation": json.dumps(pop.generation),
        "next_id": json.dumps(pop.next_id),
        "members": [_record_text(m) for m in pop.members],
        "champion": _record_text(champion),
        "stats": stats_text,
        "snapshots": snapshots_text,
        "config": json.dumps(config.to_json()),
        "fingerprint": json.dumps(fingerprint),
        "engine_version": json.dumps(ENGINE_VERSION),
    }
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)  # a run's first save makes its directory
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        _write_json(fh, parts)
    os.replace(tmp, path)


def _write_json(fh, parts: dict) -> None:
    """Write the JSON object whose values are given already encoded.

    Each value is the JSON text of a top-level value, or a list of the JSON
    texts of a top-level list's items. The keys are strings. The text
    written is what ``json.dump`` writes for the decoded object.
    """
    fh.write("{")
    for k, (key, value) in enumerate(parts.items()):
        fh.write(f"{', ' if k else ''}{json.dumps(key)}: ")
        fh.write(value if isinstance(value, str) else "[" + ", ".join(value) + "]")
    fh.write("}")


def load_checkpoint(path) -> dict:
    """The payload of the checkpoint at ``path``, its records decoded.

    Controller parameters come back bit for bit, from bytes or, in
    checkpoints written before they were stored as bytes, from float
    lists. A file that cannot be read or decoded is a ConfigError naming it.
    """
    try:
        with open(path) as fh:
            payload = json.load(fh)
        payload["members"] = [Individual.from_json(m) for m in payload["members"]]
        payload["champion"] = Individual.from_json(payload["champion"])
        payload["stats"] = [GenerationStats(**s) for s in payload["stats"]]
        payload["snapshots"] = [(g, Individual.from_json(ind)) for g, ind in payload["snapshots"]]
        payload["config"] = RunConfig.from_json(payload["config"])
    except (OSError, ValueError, KeyError, TypeError) as exc:  # bad JSON and bad base64 are ValueErrors
        raise ConfigError(f"cannot load checkpoint {path}: {type(exc).__name__}: {exc}")
    return payload


def evolve(
    config: RunConfig,
    evaluator=None,
    *,
    frozen_body: Morphology | None = None,
    checkpoint_path=None,
    resume: bool = False,
    progress=None,
) -> RunResult:
    """Run the configured number of generations and return the result.

    The champion is the best individual ever evaluated, not merely the
    final population's best. With ``checkpoint_path`` set, state is saved
    every checkpoint_interval generations and an interrupted run can be
    continued with ``resume=True``, under the engine version that wrote the
    checkpoint; another version, or none recorded, is a ConfigError.

    A run freezes a body when it is given one (``frozen_body``) or, failing
    that, when the config names a body file (``freeze_body_path``), which is
    then read once. ``voxevo retrain`` passes the body as a value, adapting
    the config to it first (``analysis.retrain_config``); ``voxevo evolve``
    never freezes one. The body is validated once, here: it must be valid,
    of the config's height x width, and trained by the modular controller;
    otherwise this raises a ConfigError. The run's fingerprint, computed
    once, hashes that body, so checkpoints, the resume check and the result
    name the body that was trained; the result also holds the body itself.

    Each stats row and each snapshot is encoded for the checkpoint once,
    when it is added or, for those a resumed run loads, after loading; a
    save then encodes only the population and the champion afresh.
    """
    config.validate()
    frozen_body = _frozen_body(config, frozen_body)
    fingerprint = config.fingerprint(frozen_body)
    if evaluator is None:
        terrain = terrain_by_name(config.environment, (config.height, config.width))
        evaluator = EpisodeEvaluator(terrain)

    stats: list[GenerationStats] = []
    snapshots: list[tuple[int, Individual]] = []

    if resume and checkpoint_path is not None and os.path.exists(checkpoint_path):
        saved = load_checkpoint(checkpoint_path)
        if saved["fingerprint"] != fingerprint:
            raise ConfigError("checkpoint belongs to a different configuration")
        if saved.get("engine_version") != ENGINE_VERSION:
            # its population's fitnesses would mix with this engine's
            raise ConfigError(
                f"checkpoint {checkpoint_path} was written by engine version {saved.get('engine_version')}, "
                f"and this is engine version {ENGINE_VERSION}; start the run afresh"
            )
        pop = Population(members=saved["members"], generation=saved["generation"], next_id=saved["next_id"])
        # the champion, if it survives, is a member that goes on ageing
        champion = next((m for m in pop.members if m.id == saved["champion"].id), saved["champion"])
        stats = saved["stats"]
        snapshots = saved["snapshots"]
    else:
        pop = make_initial_population(config, frozen_body)
        _evaluate_members(pop.members, evaluator)
        champion = _update_champion(None, pop.members)
        stats.append(_population_stats(pop, champion))
    stats_text = [_stats_text(row) for row in stats]
    snapshots_text = [_snapshot_text(g, ind) for g, ind in snapshots]

    while pop.generation < config.generations:
        pop = advance_generation(pop, evaluator, config, frozen_body)
        champion = _update_champion(champion, pop.members)
        stats.append(_population_stats(pop, champion))
        stats_text.append(_stats_text(stats[-1]))
        at_interval = pop.generation % config.checkpoint_interval == 0
        if at_interval or pop.generation == config.generations:
            snapshots.append((pop.generation, copy.deepcopy(champion)))
            snapshots_text.append(_snapshot_text(*snapshots[-1]))
            if checkpoint_path is not None:
                save_checkpoint(checkpoint_path, pop, champion, stats_text, snapshots_text, config, fingerprint)
        if progress is not None:
            progress(pop, champion)

    return RunResult(
        config=config,
        fingerprint=fingerprint,
        stats=stats,
        champion=champion,
        snapshots=snapshots,
        final_population=pop,
        frozen_body=frozen_body,
    )
