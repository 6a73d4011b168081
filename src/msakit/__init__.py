"""Manipulator stiffness modeling by constraint-based matrix structural analysis.

Build a model from flexible/rigid links, platforms, joints and supports;
assemble the sparse block system over node wrenches and deflections; extract
the 6x6 Cartesian stiffness by eliminating internal unknowns; solve loaded
configurations for full internal states and support reactions.
"""
from .assembly import (CartesianStiffness, GlobalSystem, ModelReport,
                       SolverDiagnostics, State, assemble, cartesian_stiffness,
                       check_model, solve_loaded)
from .boundary import equilibrium_residual, support_reaction
from .core import (JointBasis, JointStiffness, Wrench, joint_basis_preset,
                   make_joint_basis, rotate_link_stiffness, rotation_matrix,
                   shift_wrench, skew, transport_matrix)
from .elements import LinkStiffness
from .errors import FormatError, ModelError
from .joints import JointSpec
from .model import Model
from .modelio import (ModelDocument, document_from_model, parse_model,
                      serialize_model)
from .reference import (NavaroParams, build_navaro, build_navaro_leg,
                        oracle_merged_msa, oracle_serial_vjm, rotated_model,
                        tube_properties)

__version__ = "0.1.0"

__all__ = [
    "CartesianStiffness", "FormatError", "GlobalSystem", "JointBasis",
    "JointSpec", "JointStiffness", "LinkStiffness", "Model", "ModelDocument",
    "ModelError", "ModelReport", "NavaroParams", "SolverDiagnostics", "State",
    "Wrench", "assemble", "build_navaro", "build_navaro_leg",
    "cartesian_stiffness", "check_model", "document_from_model",
    "equilibrium_residual", "joint_basis_preset", "make_joint_basis",
    "oracle_merged_msa", "oracle_serial_vjm", "parse_model",
    "rotate_link_stiffness", "rotated_model", "rotation_matrix",
    "serialize_model", "shift_wrench", "skew", "solve_loaded",
    "support_reaction", "transport_matrix", "tube_properties",
]
