"""Voxel material palette and per-material spring constants."""

EMPTY = 0
RIGID = 1
ELASTIC = 2
ACTUATOR_H = 3  # expands/contracts horizontally
ACTUATOR_V = 4  # expands/contracts vertically

ACTIVE_CODES = (ACTUATOR_H, ACTUATOR_V)
NUM_CODES = 5

# Edge-spring stiffness per non-empty material. Shear (diagonal) springs use
# half the edge value of their voxel. Rigid must stay well above elastic.
EDGE_STIFFNESS = {
    RIGID: 2000.0,
    ELASTIC: 400.0,
    ACTUATOR_H: 800.0,
    ACTUATOR_V: 800.0,
}
SHEAR_STIFFNESS_FACTOR = 0.5
