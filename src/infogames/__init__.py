"""Finite games with explicit information structure on product spaces."""

from .errors import (
    CapacityExceeded,
    EmptyFollowerResponse,
    GameError,
    IndeterminateValue,
    NotPlayable,
    NotTwoPlayers,
    ParseError,
    SchemaError,
    SelfInformationViolation,
)
from .spaces import (
    FiniteFactor,
    Partition,
    ProductSpace,
    cylinder_partition,
    make_product_space,
    refines,
)
from .model import (
    AgentId,
    PlayabilityReport,
    Strategy,
    StrategyProfile,
    WModel,
    build_wmodel,
    check_playability,
    check_sequential,
    count_profiles,
    count_strategies,
    enumerate_strategies,
    joint_strategies,
    solution_map,
)
from .preferences import (
    Belief,
    Objective,
    PlayerData,
    PlayerPartition,
    RiskMeasure,
    Sense,
    WGame,
    apply_risk,
    make_dirac,
    make_wgame,
)
from .normal_form import (
    Evaluator,
    NormalFormMatrix,
    matrix_to_csv,
    normal_form_matrix,
    player_strategies,
)
from .equilibria import (
    OPTIMISTIC,
    PESSIMISTIC,
    BestResponseSet,
    EquilibriumReport,
    StackelbergMode,
    best_responses,
    followers_nash,
    leader_risk_mode,
    leader_value,
    nash_equilibria,
    nash_stackelberg,
    stackelberg_strategies,
    theta_mode,
)
from .models import (
    GridSpec,
    ThaiParams,
    TouParams,
    build_prisoners_dilemma,
    build_thai_slmf_mt,
    build_thai_slsf_mt,
    build_thai_slsf_st,
    build_tou_game,
)
from .gamefile import export_custom, load_game, load_game_document

__all__ = [name for name in dir() if not name.startswith("_")]
