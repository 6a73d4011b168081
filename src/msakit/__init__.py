"""Manipulator stiffness modeling by constraint-based matrix structural analysis.

Build a model from flexible/rigid links, platforms, joints and supports;
assemble the sparse block system over node wrenches and deflections; extract
the 6x6 Cartesian stiffness by eliminating internal unknowns; solve loaded
configurations for full internal states and support reactions.
"""
from .assembly import (CartesianStiffness, GlobalSystem, ModelReport,
                       PartitionedSystem, SolverDiagnostics, State, assemble,
                       cartesian_stiffness, check_model, partition,
                       solve_loaded)
from .boundary import (elastic_support_equations, equilibrium_residual,
                       external_load_equations, passive_support_equations,
                       rigid_support_equations, support_reaction)
from .core import (Deflection, JointBasis, JointStiffness, TransportMatrix,
                   Wrench, joint_basis_preset, make_joint_basis,
                   rotate_link_stiffness, rotation_matrix, shift_wrench, skew,
                   transport_matrix)
from .elements import (BeamSection, LinkStiffness, beam_stiffness,
                       flexible_link_equations, flexible_platform_equations,
                       rigid_link_equations, rigid_platform_equations)
from .equations import EquationBlock, deflection_var, wrench_var
from .errors import FormatError, ModelError
from .joints import (JointSpec, actuated_joint_equations,
                     elastic_joint_equations, junction_equations,
                     passive_joint_equations, rigid_joint_equations)
from .model import Model
from .modelio import (ModelDocument, document_from_model, parse_model,
                      serialize_model)
from .reference import (NavaroParams, build_navaro, build_navaro_leg,
                        oracle_merged_msa, oracle_serial_vjm, rotated_model,
                        tube_properties)

__version__ = "0.1.0"

__all__ = [
    "BeamSection", "CartesianStiffness", "Deflection", "EquationBlock",
    "FormatError", "GlobalSystem", "JointBasis", "JointSpec", "JointStiffness",
    "LinkStiffness", "Model", "ModelDocument", "ModelError", "ModelReport",
    "NavaroParams", "PartitionedSystem", "SolverDiagnostics", "State",
    "TransportMatrix", "Wrench", "actuated_joint_equations", "assemble",
    "beam_stiffness", "build_navaro", "build_navaro_leg", "cartesian_stiffness",
    "check_model", "deflection_var", "document_from_model",
    "elastic_joint_equations", "elastic_support_equations",
    "equilibrium_residual", "external_load_equations",
    "flexible_link_equations", "flexible_platform_equations",
    "joint_basis_preset", "junction_equations", "make_joint_basis",
    "oracle_merged_msa", "oracle_serial_vjm", "parse_model", "partition",
    "passive_joint_equations", "passive_support_equations",
    "rigid_joint_equations", "rigid_link_equations",
    "rigid_platform_equations", "rigid_support_equations",
    "rotate_link_stiffness", "rotated_model", "rotation_matrix",
    "serialize_model", "shift_wrench", "skew", "solve_loaded",
    "support_reaction", "transport_matrix", "tube_properties", "wrench_var",
]
