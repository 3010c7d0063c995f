"""PLC substrate: IEEE 1901 MAC, HomePlug AV2 PHY, wiring topology."""

from .channel import PowerlineNetwork, random_building
from .homeplug import DEFAULT_AV2, Av2Phy
from .noise import NoiseProcess, TimeVaryingPlc
from .qos import (QosClass, class_weighted_schedule,
                  optimal_tdma_weights)
from .mac import (Ieee1901CsmaSimulator, Ieee1901Parameters,
                  Ieee1901Result, TdmaScheduler)
from .sharing import (PLC_MODES, BatchPlcAllocation, PlcAllocation,
                      allocate_backhaul, allocate_backhaul_batch,
                      max_min_time_shares, max_min_time_shares_batch)

__all__ = [
    "PowerlineNetwork", "random_building", "Av2Phy", "DEFAULT_AV2",
    "Ieee1901CsmaSimulator", "Ieee1901Parameters", "Ieee1901Result",
    "TdmaScheduler", "PLC_MODES", "PlcAllocation", "BatchPlcAllocation",
    "allocate_backhaul", "allocate_backhaul_batch",
    "max_min_time_shares", "max_min_time_shares_batch",
    "NoiseProcess", "TimeVaryingPlc",
    "optimal_tdma_weights", "QosClass", "class_weighted_schedule",
]
