"""Learned irrigation control for tree orchards.

Simulated root-zone water balance, a PPO irrigation agent, classical
baseline controllers, a predictor-based safety shield, and a season-long
evaluation harness with a CLI.
"""

from .hydrology import (
    MoistureReading,
    SoilLevels,
    SoilProfile,
    calibrate_sensor,
    derive_levels,
    soil_water_content,
    testbed_profile,
)
from .predictor import (
    ObservationRow,
    PredictorModel,
    TREE1_MODEL,
    TREE2_MODEL,
    diagnostics,
    fit,
    predict_next,
)
from .weather import (
    ClimateParams,
    EtModelParams,
    ForecastNoise,
    WeatherDay,
    WeatherTable,
    hargreaves_et,
    load_weather_csv,
    synthesize_forecast,
    synthesize_season,
    write_weather_csv,
)
from .env import (
    DEFAULT_REGION_DYNAMICS,
    EnvConfig,
    IrrigationEnv,
    NormalizationStats,
    PlantParams,
    RewardParams,
    reward,
)
from .agent import (
    SquashedGaussianPolicy,
    TrainerConfig,
    gradient_check,
    load_policy,
    ppo_loss,
    returns_to_go,
    train,
)
from .controllers import (
    ConstantController,
    EtController,
    RlController,
    SensorController,
    SensorControllerConfig,
    ShieldedController,
)
from .safety import ShieldConfig, screen_rows
from .evalharness import (
    ControllerResult,
    ExperimentResult,
    qos,
    run_roster,
    water_savings,
)
from .runconfig import (
    RunConfig,
    default_run_config,
    load_config,
    save_config,
)

__version__ = "0.1.0"
