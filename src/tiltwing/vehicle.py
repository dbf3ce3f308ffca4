"""Vehicle description: physical parameters, actuators, and config ingestion.

All angles are stored in radians and all quantities in SI units internally.
The YAML config format takes each angle key with a ``_deg`` suffix for
readability or a ``_rad`` suffix for exact values.

The actuator state is the nine commands, each clamped to its constant
range by `clamp_command`, plus the wing tilt angle: the wing alone lags its
command. ``ActuatorSet.position`` derives every other physical value from
its command and ``VehicleParams.travel``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np
import yaml

WING_TILT_MAX = math.pi / 2.0

PROPELLER_NAMES = ("pl", "pr", "pt")
CONTROL_BINDINGS = ("none", "aileron-left", "aileron-right", "elevator", "rudder")
BINDING_TO_ACTUATOR = {
    "aileron-left": "al",
    "aileron-right": "ar",
    "elevator": "e",
    "rudder": "r",
}
SEGMENT_KINDS = ("wing", "htail", "vtail")


class ConfigError(ValueError):
    """Unparsable config, missing field, or violated parameter invariant."""


@dataclass(eq=False)
class PropellerParams:
    """One propulsion unit.

    Wing-mounted units take ``hub_offset`` relative to the wing pivot in the
    wing frame; they rotate with the wing tilt. The tail unit takes a
    body-frame hub position and its axis tilts about body x by zeta_tt.
    """

    name: str
    mount: str                 # "wing" | "tail"
    hub_offset: np.ndarray     # m
    diameter: float            # m
    ct0: float                 # C_T(J) = ct0 + ct1 * J
    ct1: float
    cq0: float                 # C_Q(J) = cq0 + cq1 * J
    cq1: float
    normal_force_coeff: float  # mu_N, N s^2 / (rev m)
    handedness: float          # +1 right-handed about the forward axis, or -1
    max_speed: float           # rev/s

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
    kind: str                  # "wing" | "htail" | "vtail"
    cp: np.ndarray             # center of pressure; wing: pivot-relative, else body [m]
    chord: float               # m
    span: float                # m
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
    blend_halfwidth: float     # rad
    fp_cl45: float             # flat-plate C_L at alpha = 45 deg
    fp_cd_min: float
    fp_cd90: float             # flat-plate C_D at alpha = 90 deg
    fp_cm_max: float
    control: str = "none"
    control_gain: float = 1.0  # local deflection = gain * actuator deflection
    slipstream: str = "none"   # propeller name or "none"


@dataclass(eq=False)
class FuselageParams:
    """Quadratic-form drag, coefficients lumped with reference area [m^2]."""

    cd_x: float
    cd_y: float
    cd_z: float


@dataclass(eq=False)
class WingParams:
    pivot: np.ndarray          # tilt-axis point, body frame [m]
    tilt_up_time: float        # s for full 0 -> 90 deg tilt
    tilt_down_time: float      # s for full 90 -> 0 deg tilt


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

    mass: float
    inertia: np.ndarray
    gravity: np.ndarray
    rho: float
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
    """Check every parameter invariant; raises ConfigError naming the field."""
    values = [("mass", vp.mass), ("air_density", vp.rho), ("inertia", vp.inertia),
              ("gravity", vp.gravity)]
    for where, rec in [("wing.", vp.wing), ("fuselage.", vp.fuselage),
                       *((f"propellers.{p.name}.", p) for p in vp.propellers),
                       *((f"segments.{s.name}.", s) for s in vp.segments)]:
        values += [(where + f.name, getattr(rec, f.name)) for f in fields(rec)]
    for where, value in values:
        if isinstance(value, (float, np.ndarray)) and not np.isfinite(value).all():
            raise ConfigError(f"{where} must be finite, got {value}")
    if not vp.mass > 0.0:
        raise ConfigError(f"mass must be > 0, got {vp.mass}")
    if not vp.rho > 0.0:
        raise ConfigError(f"air_density must be > 0, got {vp.rho}")
    inertia = np.asarray(vp.inertia, dtype=float)
    if inertia.shape != (3, 3):
        raise ConfigError(f"inertia must be 3x3, got shape {inertia.shape}")
    if not np.allclose(inertia, inertia.T, atol=1e-12):
        raise ConfigError("inertia must be symmetric")
    if np.any(np.linalg.eigvalsh(inertia) <= 0.0):
        raise ConfigError("inertia must be positive definite")
    if np.asarray(vp.gravity).shape != (3,):
        raise ConfigError("gravity must be a 3-vector")

    names = [p.name for p in vp.propellers]
    if sorted(names) != sorted(PROPELLER_NAMES):
        raise ConfigError(f"propellers must be exactly {PROPELLER_NAMES}, got {names}")
    for p in vp.propellers:
        if p.mount not in ("wing", "tail"):
            raise ConfigError(f"propellers.{p.name}.mount must be wing|tail, got {p.mount}")
        if not p.diameter > 0.0:
            raise ConfigError(f"propellers.{p.name}.diameter must be > 0")
        if not p.ct0 > 0.0:
            raise ConfigError(f"propellers.{p.name}.ct[0] must be > 0 (static thrust)")
        if not p.max_speed > 0.0:
            raise ConfigError(f"propellers.{p.name}.max_speed must be > 0")
        if not p.normal_force_coeff > 0.0:
            raise ConfigError(f"propellers.{p.name}.normal_force_coeff must be > 0")
        if p.handedness not in (-1, 1):
            raise ConfigError(f"propellers.{p.name}.handedness must be -1 or +1")

    for s in vp.segments:
        loc = f"segments.{s.name}"
        if s.kind not in SEGMENT_KINDS:
            raise ConfigError(f"{loc}.kind must be one of {SEGMENT_KINDS}")
        if not s.chord > 0.0:
            raise ConfigError(f"{loc}.chord must be > 0")
        if not s.span > 0.0:
            raise ConfigError(f"{loc}.span must be > 0")
        if not (s.alpha_stall_neg < 0.0 < s.alpha_stall_pos):
            raise ConfigError(f"{loc}: stall angles must satisfy alpha_neg < 0 < alpha_pos")
        if not s.blend_halfwidth > 0.0:
            raise ConfigError(f"{loc}.blend_halfwidth must be > 0")
        for key in ("fp_cl45", "fp_cd_min", "fp_cd90", "fp_cm_max"):
            if getattr(s, key) < 0.0:
                raise ConfigError(f"{loc}.{key} must be >= 0")
        if s.control not in CONTROL_BINDINGS:
            raise ConfigError(f"{loc}.control must be one of {CONTROL_BINDINGS}")
        if s.control_gain not in (-1.0, 1.0):
            raise ConfigError(f"{loc}.control_gain must be -1 or +1")
        if s.slipstream not in ("none",) + PROPELLER_NAMES:
            raise ConfigError(f"{loc}.slipstream must be a propeller name or none")

    for key in ("cd_x", "cd_y", "cd_z"):
        if getattr(vp.fuselage, key) < 0.0:
            raise ConfigError(f"fuselage.{key} must be >= 0")

    if not vp.wing.tilt_up_time > 0.0 or not vp.wing.tilt_down_time > 0.0:
        raise ConfigError("wing tilt times must be > 0")
    if np.asarray(vp.wing.pivot).shape != (3,):
        raise ConfigError("wing.pivot must be a 3-vector")

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


def _mapping(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where.rstrip('.') or 'a vehicle'} must be a mapping, "
                          f"got {value!r}")
    return value


def _require(mapping: dict, key: str, where: str):
    if key not in _mapping(mapping, where):
        raise ConfigError(f"missing required field: {where}{key}")
    return mapping[key]


def _list(mapping: dict, key: str) -> list:
    value = _require(mapping, key, "")
    if not isinstance(value, list):
        raise ConfigError(f"{key} must be a list, got {value!r}")
    return value


def _number(value, where: str) -> float:
    """A config or scenario value as a float; anything else is a ConfigError."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{where} must be a number, got {value!r}") from None


def _field(mapping: dict, key: str, where: str) -> float:
    return _number(_require(mapping, key, where), where + key)


def _angle(mapping: dict, base: str, where: str) -> float:
    """Read a required angle given either as `<base>_rad` or `<base>_deg`."""
    if f"{base}_rad" in _mapping(mapping, where):
        return _number(mapping[f"{base}_rad"], f"{where}{base}_rad")
    if f"{base}_deg" in mapping:
        return math.radians(_number(mapping[f"{base}_deg"], f"{where}{base}_deg"))
    raise ConfigError(f"missing required field: {where}{base}_deg (or _rad)")


def _vec3(value, where: str) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"{where} must be a 3-element list of numbers") from None
    if arr.shape != (3,):
        raise ConfigError(f"{where} must be a 3-element list")
    return arr


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


def load_vehicle_config(path: str | Path) -> VehicleParams:
    """Load and fully validate a vehicle config file."""
    raw = read_yaml_file(path, "config file", ConfigError)
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return vehicle_from_dict(raw)


def _pair(value, where: str) -> tuple[float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"{where} must be a list of 2 numbers, got {value!r}")
    return _number(value[0], where), _number(value[1], where)


def vehicle_from_dict(raw: dict) -> VehicleParams:
    mass = _field(raw, "mass", "")
    try:
        inertia = np.asarray(_require(raw, "inertia", ""), dtype=float)
    except (TypeError, ValueError):
        raise ConfigError("inertia must be a 3x3 list of numbers") from None
    gravity = _vec3(raw.get("gravity", [0.0, 0.0, 9.81]), "gravity")
    rho = _field(raw, "air_density", "")

    wraw = _require(raw, "wing", "")
    wing = WingParams(
        pivot=_vec3(_require(wraw, "pivot", "wing."), "wing.pivot"),
        tilt_up_time=_field(wraw, "tilt_up_time", "wing."),
        tilt_down_time=_field(wraw, "tilt_down_time", "wing."),
    )

    props = []
    for praw in _list(raw, "propellers"):
        name = _require(praw, "name", "propellers[].")
        where = f"propellers.{name}."
        ct0, ct1 = _pair(_require(praw, "ct", where), where + "ct")
        cq0, cq1 = _pair(_require(praw, "cq", where), where + "cq")
        props.append(PropellerParams(
            name=name,
            mount=_require(praw, "mount", where),
            hub_offset=_vec3(_require(praw, "hub_offset", where), where + "hub_offset"),
            diameter=_field(praw, "diameter", where),
            ct0=ct0, ct1=ct1, cq0=cq0, cq1=cq1,
            normal_force_coeff=_field(praw, "normal_force_coeff", where),
            handedness=_field(praw, "handedness", where),
            max_speed=_field(praw, "max_speed", where),
        ))

    segs = []
    for sraw in _list(raw, "segments"):
        name = _require(sraw, "name", "segments[].")
        where = f"segments.{name}."
        coeffs = _require(sraw, "coefficients", where)
        fp = _require(sraw, "flat_plate", where)
        segs.append(AirfoilSegmentParams(
            name=name,
            kind=_require(sraw, "kind", where),
            cp=_vec3(_require(sraw, "cp", where), where + "cp"),
            chord=_field(sraw, "chord", where),
            span=_field(sraw, "span", where),
            cl0=_field(coeffs, "cl0", where + "coefficients."),
            cl_alpha=_field(coeffs, "cl_alpha", where + "coefficients."),
            cl_delta=_number(coeffs.get("cl_delta", 0.0), where + "coefficients.cl_delta"),
            cd0=_field(coeffs, "cd0", where + "coefficients."),
            cd_alpha2=_field(coeffs, "cd_alpha2", where + "coefficients."),
            cm0=_number(coeffs.get("cm0", 0.0), where + "coefficients.cm0"),
            cm_alpha=_number(coeffs.get("cm_alpha", 0.0), where + "coefficients.cm_alpha"),
            cm_delta=_number(coeffs.get("cm_delta", 0.0), where + "coefficients.cm_delta"),
            alpha_stall_neg=_angle(sraw, "alpha_stall_neg", where),
            alpha_stall_pos=_angle(sraw, "alpha_stall_pos", where),
            blend_halfwidth=_angle(sraw, "blend_halfwidth", where),
            fp_cl45=_field(fp, "cl45", where + "flat_plate."),
            fp_cd_min=_field(fp, "cd_min", where + "flat_plate."),
            fp_cd90=_field(fp, "cd90", where + "flat_plate."),
            fp_cm_max=_field(fp, "cm_max", where + "flat_plate."),
            control=sraw.get("control", "none"),
            control_gain=_number(sraw.get("control_gain", 1.0), where + "control_gain"),
            slipstream=sraw.get("slipstream", "none"),
        ))

    fraw = _require(raw, "fuselage", "")
    fus = FuselageParams(
        cd_x=_field(fraw, "cd_x", "fuselage."),
        cd_y=_field(fraw, "cd_y", "fuselage."),
        cd_z=_field(fraw, "cd_z", "fuselage."),
    )

    araw = _require(raw, "actuators", "")
    return VehicleParams(mass=mass, inertia=inertia, gravity=gravity, rho=rho,
                         wing=wing, propellers=props, segments=segs, fuselage=fus,
                         surface_travel={n: _angle(araw, f"{k}_travel", "actuators.")
                                         for n, k in SURFACE_TRAVEL_KEYS.items()})


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
