"""Vehicle description: physical parameters, actuators, and config ingestion.

All angles are stored in radians and all quantities in SI units internally.
The YAML config format takes each angle key with a ``_deg`` suffix for
readability or a ``_rad`` suffix for exact values. The propeller layout is
fixed: the main rotors ``pl`` and ``pr`` ride on the wing and tilt with it,
and ``pt`` (``TAIL_PROPELLER``) is the tail unit.

`read_keys` is the one reader of every input file: it walks a mapping
against the key table that each file kind declares (``VEHICLE_KEYS`` here).
It refuses an unknown key, a missing required one, a value that is not a
finite number (a YAML bool is not one), a list of the wrong length, a text
that is not one printable line without leading or trailing whitespace and
an angle given both in ``_deg`` and ``_rad``, naming the value by its path.
A vehicle's top-level keys that start with ``x-`` are its YAML anchor
blocks and are not read. Each parameter's own bound is declared on its
dataclass field, and `validate_vehicle` checks the bounds and the
invariants across fields for every `VehicleParams`, variants made with
`dataclasses.replace` included.

The actuator state is the nine commands, each clamped to its constant
range by `clamp_command`, plus the wing tilt angle: the wing alone lags its
command. ``ActuatorSet.position`` derives every other physical value from
its command and ``VehicleParams.travel``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np
import yaml

WING_TILT_MAX = math.pi / 2.0

PROPELLER_NAMES = ("pl", "pr", "pt")
TAIL_PROPELLER = "pt"   # the others ride on the wing
BINDING_TO_ACTUATOR = {
    "aileron-left": "al",
    "aileron-right": "ar",
    "elevator": "e",
    "rudder": "r",
}
CONTROL_BINDINGS = ("none", *BINDING_TO_ACTUATOR)
SEGMENT_KINDS = ("wing", "htail", "vtail")


class ConfigError(ValueError):
    """Unparsable config, missing field, or violated parameter invariant."""


def _bounded(what: str, holds):
    """A maker of dataclass fields whose value must satisfy ``holds``, named
    ``what`` in `validate_vehicle`'s refusal; it passes a ``default`` through."""
    return lambda **default: field(metadata={"bound": (what, holds)}, **default)


positive = _bounded("> 0", lambda x: x > 0.0)
nonnegative = _bounded(">= 0", lambda x: x >= 0.0)
sign = _bounded("-1 or +1", lambda x: x in (-1.0, 1.0))


def one_of(*choices, **default):
    return _bounded(f"one of {choices}", lambda x: x in choices)(**default)


@dataclass(eq=False)
class PropellerParams:
    """One propulsion unit, placed by its name in the fixed layout.

    The wing units ``pl`` and ``pr`` take ``hub_offset`` relative to the wing
    pivot in the wing frame; they rotate with the wing tilt. The tail unit
    takes a body-frame hub position and its axis tilts about body x by
    zeta_tt.
    """

    name: str
    hub_offset: np.ndarray     # m
    diameter: float = positive()
    ct0: float = positive()    # C_T(J) = ct0 + ct1 * J; ct0 is the static thrust
    ct1: float
    cq0: float                 # C_Q(J) = cq0 + cq1 * J
    cq1: float
    normal_force_coeff: float = positive()  # mu_N, N s^2 / (rev m)
    handedness: float = sign()  # +1 right-handed about the forward axis, or -1
    max_speed: float = positive()           # rev/s

    @property
    def disk_area(self) -> float:
        return math.pi * self.diameter ** 2 / 4.0

    @property
    def advance_ratio_max(self) -> float:
        """J above which the affine C_T would go negative."""
        if self.ct1 >= 0.0:
            return math.inf
        return -self.ct0 / self.ct1


@dataclass(eq=False)
class AirfoilSegmentParams:
    """Span-wise airfoil strip with pre-stall and flat-plate coefficients."""

    name: str
    kind: str = one_of(*SEGMENT_KINDS)
    cp: np.ndarray             # center of pressure; wing: pivot-relative, else body [m]
    chord: float = positive()  # m
    span: float = positive()   # m
    cl0: float
    cl_alpha: float
    cl_delta: float
    cd0: float
    cd_alpha2: float
    cm0: float
    cm_alpha: float
    cm_delta: float
    alpha_stall_neg: float     # rad, < 0
    alpha_stall_pos: float     # rad, > 0
    blend_halfwidth: float = positive()  # rad
    fp_cl45: float = nonnegative()       # flat-plate C_L at alpha = 45 deg
    fp_cd_min: float = nonnegative()
    fp_cd90: float = nonnegative()       # flat-plate C_D at alpha = 90 deg
    fp_cm_max: float = nonnegative()
    control: str = one_of(*CONTROL_BINDINGS, default="none")
    control_gain: float = sign(default=1.0)  # local deflection = gain * actuator deflection
    slipstream: str = one_of("none", *PROPELLER_NAMES, default="none")  # a propeller or none


@dataclass(eq=False)
class FuselageParams:
    """Quadratic-form drag, coefficients lumped with reference area [m^2]."""

    cd_x: float = nonnegative()
    cd_y: float = nonnegative()
    cd_z: float = nonnegative()


@dataclass(eq=False)
class WingParams:
    pivot: np.ndarray          # tilt-axis point, body frame [m]
    tilt_up_time: float = positive()    # s for full 0 -> 90 deg tilt
    tilt_down_time: float = positive()  # s for full 90 -> 0 deg tilt


ACTUATOR_ORDER = ("w", "pl", "pr", "pt", "al", "ar", "e", "r", "tt")
# each command's range is [COMMAND_LO[name], COMMAND_HI]: [0, 1] for the
# wing tilt and the throttles, [-1, 1] for the surfaces and the tail tilt
COMMAND_LO = {n: 0.0 if n in ("w", *PROPELLER_NAMES) else -1.0 for n in ACTUATOR_ORDER}
COMMAND_HI = 1.0
# the surfaces whose travel a config sets, by the stem of its key
SURFACE_TRAVEL_KEYS = {"al": "aileron", "ar": "aileron", "e": "elevator",
                       "r": "rudder", "tt": "tail_tilt"}


def clamp_command(name: str, value: float) -> float:
    """A command clamped to its range."""
    return min(max(value, COMMAND_LO[name]), COMMAND_HI)


@dataclass(eq=False)
class VehicleParams:
    """Complete physical description; immutable after load by convention."""

    mass: float = positive()
    rho: float = positive()    # air density
    inertia: np.ndarray
    gravity: np.ndarray
    wing: WingParams
    propellers: list[PropellerParams]
    segments: list[AirfoilSegmentParams]
    fuselage: FuselageParams
    surface_travel: dict[str, float]  # rad per unit command, keyed as SURFACE_TRAVEL_KEYS

    def __post_init__(self) -> None:
        self.inertia = np.asarray(self.inertia, dtype=float)
        self.gravity = np.asarray(self.gravity, dtype=float)
        validate_vehicle(self)
        self.inertia_inv = np.linalg.inv(self.inertia)
        self.prop = {p.name: p for p in self.propellers}
        # every actuator's physical value per unit command (rad, or rev/s)
        self.travel = {"w": WING_TILT_MAX, **{p.name: p.max_speed for p in self.propellers},
                       **self.surface_travel}
        self._aero_tables = None  # built lazily by tiltwing.aero; __post_init__ resets it

    @property
    def weight(self) -> float:
        return self.mass * float(np.linalg.norm(self.gravity))


def validate_vehicle(vp: VehicleParams) -> None:
    """Check each field of every record (finite, then its declared bound) and
    the invariants across fields; raises ConfigError naming the path."""
    for where, rec in [("", vp), ("wing.", vp.wing), ("fuselage.", vp.fuselage),
                       *((f"propellers.{p.name}.", p) for p in vp.propellers),
                       *((f"segments.{s.name}.", s) for s in vp.segments)]:
        for f in fields(rec):
            path = where + ("air_density" if f.name == "rho" else f.name)
            value = getattr(rec, f.name)
            if isinstance(value, (float, np.ndarray)) and not np.isfinite(value).all():
                _refuse(path, "finite", np.asarray(value).tolist())
            if (bound := f.metadata.get("bound")) and not bound[1](value):
                _refuse(path, bound[0], value)
    if not np.allclose(vp.inertia, vp.inertia.T, atol=1e-12):
        raise ConfigError("inertia must be symmetric")
    if np.any(np.linalg.eigvalsh(vp.inertia) <= 0.0):
        raise ConfigError("inertia must be positive definite")

    names = [p.name for p in vp.propellers]
    if sorted(names) != sorted(PROPELLER_NAMES):
        raise ConfigError(f"propellers must be exactly {PROPELLER_NAMES}, got {names}")
    for s in vp.segments:
        if not (s.alpha_stall_neg < 0.0 < s.alpha_stall_pos):
            raise ConfigError(
                f"segments.{s.name}: stall angles must satisfy alpha_neg < 0 < alpha_pos")
        # the pre-stall weight is 0 at +-180 deg only if the blend ends inside
        lo, hi = s.alpha_stall_neg - s.blend_halfwidth, s.alpha_stall_pos + s.blend_halfwidth
        if lo < -math.pi or hi > math.pi:
            raise ConfigError(f"segments.{s.name}: the stall band and its blend must lie "
                              f"within +-180 deg, got [{math.degrees(lo):g}, "
                              f"{math.degrees(hi):g}] deg")
    for name, key in SURFACE_TRAVEL_KEYS.items():
        if not 0.0 < (travel := vp.surface_travel.get(name, math.nan)) < math.inf:
            raise ConfigError(f"actuators.{key}_travel must be finite and > 0, "
                              f"got {travel:g} rad ({math.degrees(travel):g} deg)")


# ---------------------------------------------------------------------------
# Actuator state
# ---------------------------------------------------------------------------

@dataclass
class ActuatorSet:
    """Actuator state: the nine normalized commands (delta_*) and the wing
    tilt angle.

    The commands are the state. Every actuator but the wing follows its
    command at once, so its physical value is derived, never stored:
    :meth:`position` maps a command through ``vp.travel``. The wing tilt is
    slow; its angle ``zeta_w`` is the one stored position, and
    :func:`apply_actuator_rates` slews it toward the command. Value-semantic.
    """

    delta_w: float = 0.0    # [0, 1] wing tilt, 1 = fully up (hover)
    delta_pl: float = 0.0   # [0, 1] left main throttle
    delta_pr: float = 0.0
    delta_pt: float = 0.0
    delta_al: float = 0.0   # [-1, 1]
    delta_ar: float = 0.0
    delta_e: float = 0.0
    delta_r: float = 0.0
    delta_tt: float = 0.0
    zeta_w: float = 0.0     # rad, 0 = cruise, pi/2 = hover

    def copy(self) -> "ActuatorSet":
        return ActuatorSet(**self.__dict__)

    def position(self, name: str, vp: VehicleParams) -> float:
        """Physical value of one actuator: the wing tilt angle for ``"w"``,
        otherwise command x travel (rad, or rev/s for a propeller)."""
        if name == "w":
            return self.zeta_w
        return getattr(self, f"delta_{name}") * vp.travel[name]


def actuation_from_commands(vp: VehicleParams, **deltas: float) -> ActuatorSet:
    """ActuatorSet from commands clamped to their ranges, with the wing tilt
    settled at its commanded angle.

    ``delta_plr`` may be passed as shorthand for equal left/right main
    throttle.
    """
    if "delta_plr" in deltas:
        v = deltas.pop("delta_plr")
        deltas.setdefault("delta_pl", v)
        deltas.setdefault("delta_pr", v)
    act = ActuatorSet()
    for key, v in deltas.items():
        if not key.startswith("delta_") or key[6:] not in ACTUATOR_ORDER:
            raise ConfigError(f"unknown actuator command {key!r}")
        setattr(act, key, clamp_command(key[6:], float(v)))
    act.zeta_w = act.delta_w * vp.travel["w"]
    return act


def nominal_actuation(vp: VehicleParams, current: ActuatorSet,
                      delta_plr: float, delta_w: float) -> ActuatorSet:
    """Nominal actuation: all attitude effectors zero, keeping the current
    physical wing tilt (the tilt actuator is slow, so the nominal wrench must
    be evaluated at the real tilt angle, not the commanded one)."""
    act = actuation_from_commands(vp, delta_w=delta_w, delta_plr=delta_plr)
    act.zeta_w = current.zeta_w
    return act


def apply_actuator_rates(current: ActuatorSet, command: ActuatorSet, dt: float,
                         vp: VehicleParams) -> ActuatorSet:
    """Actuator state ``dt`` after ``command`` was given in ``current``.

    Every command is clamped to its range and takes effect at once. The
    wing tilt angle slews toward its commanded angle at the rates set by
    ``vp.wing.tilt_up_time`` and ``tilt_down_time``, and never overshoots.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be > 0, got {dt}")
    out = ActuatorSet()
    for name in ACTUATOR_ORDER:
        key = f"delta_{name}"
        setattr(out, key, clamp_command(name, getattr(command, key)))
    travel = vp.travel["w"]   # the full tilt, swept in tilt_*_time
    target = out.delta_w * travel
    pos = current.zeta_w
    if target > pos:
        pos = min(pos + travel / vp.wing.tilt_up_time * dt, target)
    else:
        pos = max(pos - travel / vp.wing.tilt_down_time * dt, target)
    out.zeta_w = pos
    return out


# ---------------------------------------------------------------------------
# Config I/O
# ---------------------------------------------------------------------------

DEFAULT_CONFIG = Path(__file__).parent / "data" / "vehicle_default.yaml"


REQUIRED = object()   # a key-table default: the mapping must give the key
OPTIONAL = object()   # a key-table default: an absent key is left out


def _refuse(path: str, what: str, value):
    raise ConfigError(f"{path} must be {what}, got {value!r}")


def numbers(shape: tuple[int, ...], what: str, build=np.array):
    """A parser of one number (``shape`` ``()``) or of nested lists of
    ``shape`` numbers, each finite and none a YAML bool, that it hands to
    ``build``."""
    def nested(value, shape):
        if not shape:
            try:
                return None if isinstance(value, bool) else float(value)
            except OverflowError:   # an integer beyond the float range
                return math.inf
            except (TypeError, ValueError):
                return None
        if not (isinstance(value, list) and len(value) == shape[0]):
            return None
        out = [nested(v, shape[1:]) for v in value]
        return None if None in out else out

    def finite(xs) -> bool:
        return all(map(finite, xs)) if isinstance(xs, list) else math.isfinite(xs)

    def parse(value, path: str):
        if (xs := nested(value, shape)) is None:
            _refuse(path, what, value)
        if not finite(xs):
            _refuse(path, "finite", xs)
        return build(xs)
    return parse


number = numbers((), "a number", float)
vec3 = numbers((3,), "a 3-element list of numbers")
matrix3 = numbers((3, 3), "a 3x3 list of numbers")
pair = numbers((2,), "a list of 2 numbers", tuple)


def angle(value, path: str) -> float:
    """A finite angle in radians. `read_keys` looks the angle ``<key>`` up as
    ``<key>_deg``, read with `math.radians`, or as ``<key>_rad``."""
    x = number(value, path)
    return math.radians(x) if path.endswith("_deg") else x


def text(*choices: str):
    """A parser of one line of printable text without leading or trailing
    whitespace, one of ``choices`` if any."""
    def parse(value, path: str) -> str:
        if not (isinstance(value, str) and value.isprintable()):
            _refuse(path, "one line of printable text", value)
        if value != value.strip():
            _refuse(path, "free of leading and trailing whitespace", value)
        if choices and value not in choices:
            _refuse(path, f"one of {choices}", value)
        return value
    return parse


def flag(value, path: str) -> bool:
    if not isinstance(value, bool):
        _refuse(path, "true or false", value)
    return value


def table(keys: dict):
    """A parser of a nested mapping, walked against ``keys``; null is empty."""
    return lambda value, path: _walk(value, keys, path)


def tables(keys: dict):
    """A parser of a list of mappings, each walked against ``keys`` and named
    by its ``name`` if that is a string, else by its index; null is empty."""
    def parse(value, path: str) -> list[dict]:
        if not isinstance(value := [] if value is None else value, list):
            _refuse(path, "a list", value)
        return [_walk(item, keys, f"{path}.{item['name']}" if isinstance(item, dict)
                      and isinstance(item.get("name"), str) else f"{path}[{i}]")
                for i, item in enumerate(value)]
    return parse


def _walk(raw, keys: dict, path: str) -> dict:
    def at(key: str) -> str:
        return f"{path}.{key}" if path else key

    if not isinstance(raw := {} if raw is None else raw, dict):
        _refuse(path or "the top level", "a mapping", raw)
    names = {key: (f"{key}_deg", f"{key}_rad") if parse is angle else (key,)
             for key, (parse, _) in keys.items()}
    if unknown := set(raw).difference(*names.values()):
        raise ConfigError(f"unknown {path or 'top-level'} keys {sorted(map(str, unknown))}")
    out = {}
    for key, (parse, default) in keys.items():
        given = [name for name in names[key] if name in raw]
        if len(given) > 1:
            raise ConfigError(f"{at(key)} must be given in _deg or in _rad, not both")
        if given:
            out[key] = parse(raw[given[0]], at(given[0]))
        elif default is REQUIRED:
            raise ConfigError(f"missing required field: {' or '.join(map(at, names[key]))}")
        elif default is not OPTIONAL:
            out[key] = parse(default, at(key))
    return out


def read_keys(raw, keys: dict, error: type[Exception], path: str = "") -> dict:
    """The checked values of a mapping read from YAML, by key.

    ``keys``, the key table of a file kind, maps each key to ``(parse,
    default)``: one of the parsers above, and REQUIRED, OPTIONAL or a value
    that ``parse`` reads when the key is absent. A null mapping is empty. An
    unknown key, a missing required one or a value that its parser refuses
    raises ``error`` naming the value by its path under ``path``, as in
    ``segments.wing_l_in.span must be a number, got 'wide'``."""
    try:
        return _walk(raw, keys, path)
    except ConfigError as exc:
        raise error(str(exc)) from None


def _stripped_lines(path: str | Path):
    """The lines of a text file as ``str.splitlines`` cuts them, stripped,
    read one at a time."""
    with Path(path).open(encoding="utf-8") as f:
        for raw in f:
            for line in raw.splitlines():
                yield line.strip()


def read_csv_table(path: str | Path, error: type[Exception]
                   ) -> tuple[list[str], list[str], np.ndarray, np.ndarray]:
    """The comment lines (after their ``#``), the header's names, the float
    rows as an (n, len(header)) array and each row's line number of a CSV
    table. A missing header, or a row that is not one number per name,
    raises ``error`` naming the file (and line).

    A first pass counts the rows, and the second parses them one line at a
    time into the preallocated array, so reading needs about the array's
    memory plus 8 bytes a row for the line numbers."""
    n_rows = sum(1 for line in _stripped_lines(path)
                 if line and not line.startswith("#")) - 1
    comments, header, rows, linenos, i = [], None, None, None, 0
    for lineno, line in enumerate(_stripped_lines(path), 1):
        if line.startswith("#"):
            comments.append(line[1:])
        elif line and header is None:
            header = line.split(",")
            rows, linenos = np.empty((n_rows, len(header))), np.empty(n_rows, dtype=np.int64)
        elif line:
            if i == n_rows:
                raise error(f"{path} changed while it was read")
            try:
                row = [float(tok) for tok in line.split(",")]
            except ValueError:
                row = []
            if len(row) != len(header):
                raise error(f"{path} line {lineno}: not {len(header)} numbers: {line!r}")
            rows[i], linenos[i] = row, lineno
            i += 1
    if header is None:
        raise error(f"no header in {path}")
    if i < n_rows:
        raise error(f"{path} changed while it was read")
    return comments, header, rows, linenos


def read_yaml_file(path: str | Path, what: str, error: type[Exception]):
    """The YAML document of a file. A missing file raises ``error`` saying
    that ``what`` is not found, and a YAML syntax error one naming the file."""
    try:
        return yaml.safe_load(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise error(f"{what} not found: {path}") from None
    except yaml.YAMLError as exc:
        raise error(f"cannot parse {path}: {exc}") from exc


WING_KEYS = {"pivot": (vec3, REQUIRED),
             **dict.fromkeys(("tilt_up_time", "tilt_down_time"), (number, REQUIRED))}
PROPELLER_KEYS = {"name": (text(), REQUIRED), "hub_offset": (vec3, REQUIRED),
                  "ct": (pair, REQUIRED), "cq": (pair, REQUIRED),
                  **dict.fromkeys(("diameter", "normal_force_coeff", "handedness", "max_speed"),
                                  (number, REQUIRED))}
COEFFICIENT_KEYS = {**dict.fromkeys(("cl0", "cl_alpha", "cd0", "cd_alpha2"), (number, REQUIRED)),
                    **dict.fromkeys(("cl_delta", "cm0", "cm_alpha", "cm_delta"), (number, 0.0))}
SEGMENT_KEYS = {
    "name": (text(), REQUIRED), "kind": (text(), REQUIRED), "cp": (vec3, REQUIRED),
    **dict.fromkeys(("chord", "span"), (number, REQUIRED)),
    "coefficients": (table(COEFFICIENT_KEYS), REQUIRED),
    **dict.fromkeys(("alpha_stall_neg", "alpha_stall_pos", "blend_halfwidth"), (angle, REQUIRED)),
    "flat_plate": (table(dict.fromkeys(("cl45", "cd_min", "cd90", "cm_max"), (number, REQUIRED))),
                   REQUIRED),
    # absent, each of these three takes its field's default
    "control": (text(), OPTIONAL), "control_gain": (number, OPTIONAL),
    "slipstream": (text(), OPTIONAL)}
VEHICLE_KEYS = {
    "mass": (number, REQUIRED), "inertia": (matrix3, REQUIRED),
    "gravity": (vec3, [0.0, 0.0, 9.81]), "air_density": (number, REQUIRED),
    "wing": (table(WING_KEYS), REQUIRED),
    "actuators": (table({f"{key}_travel": (angle, REQUIRED)
                         for key in dict.fromkeys(SURFACE_TRAVEL_KEYS.values())}), REQUIRED),
    "propellers": (tables(PROPELLER_KEYS), REQUIRED),
    "segments": (tables(SEGMENT_KEYS), REQUIRED),
    "fuselage": (table(dict.fromkeys(("cd_x", "cd_y", "cd_z"), (number, REQUIRED))), REQUIRED)}


def load_vehicle_config(path: str | Path) -> VehicleParams:
    """Load and fully validate a vehicle config file."""
    return vehicle_from_dict(read_yaml_file(path, "config file", ConfigError))


def vehicle_from_dict(raw: dict) -> VehicleParams:
    """The vehicle a config mapping describes, read against VEHICLE_KEYS
    with its top-level ``x-`` keys (the YAML anchor blocks) left aside."""
    if isinstance(raw, dict):
        raw = {k: v for k, v in raw.items() if not str(k).startswith("x-")}
    v = read_keys(raw, VEHICLE_KEYS, ConfigError)
    for p in v["propellers"]:
        (p["ct0"], p["ct1"]), (p["cq0"], p["cq1"]) = p.pop("ct"), p.pop("cq")
    for s in v["segments"]:
        s.update(s.pop("coefficients"), **{f"fp_{k}": x for k, x in s.pop("flat_plate").items()})
    return VehicleParams(
        mass=v["mass"], inertia=v["inertia"], gravity=v["gravity"], rho=v["air_density"],
        wing=WingParams(**v["wing"]), fuselage=FuselageParams(**v["fuselage"]),
        propellers=[PropellerParams(**p) for p in v["propellers"]],
        segments=[AirfoilSegmentParams(**s) for s in v["segments"]],
        surface_travel={n: v["actuators"][f"{k}_travel"] for n, k in SURFACE_TRAVEL_KEYS.items()})


def mirror_twin(vp: VehicleParams) -> VehicleParams:
    """The vehicle's image in its x-z plane, for an airframe whose left and
    right halves are alike.

    Reflection swaps the left and right rotors and reverses every rotor's
    sense of spin (a spinning rotor is chiral). So the twin's left rotor
    spins as the mirrored right one, and the single tail rotor has its
    handedness flipped. Evaluating the twin at the mirrored state and
    actuation gives the mirrored wrench."""
    mirrored = {"pl": "pr", "pr": "pl", "pt": "pt"}
    return replace(vp, propellers=[
        replace(p, handedness=-vp.prop[mirrored[p.name]].handedness)
        for p in vp.propellers])


def default_vehicle() -> VehicleParams:
    """The shipped desk-scale tiltwing."""
    return load_vehicle_config(DEFAULT_CONFIG)
