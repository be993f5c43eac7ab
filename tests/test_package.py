import quswap

PUBLIC_NAMES = [
    "BeamsplitterParam", "FockCutoff", "ModeOperator", "QuditDim", "QuditGate",
    "TruncationWarning", "VerificationReport", "adjoint", "annihilation", "basis_state",
    "beamsplitter", "beamsplitter_blockwise", "coherent_state", "coherent_truncation_weight",
    "commutator", "conjugated_controlled_unitary", "controlled_shift",
    "controlled_shift_reversed", "controlled_unitary", "creation", "displacement",
    "exchange_protocol", "fidelity", "imperfect_clone_closed_form", "imperfect_clone_numeric",
    "is_unitary", "level_projector", "mat_exp", "matmul", "matpow", "max_abs", "mod_add",
    "mode2_marginal", "number", "phase_op", "reverse_gate", "run_suite", "schwinger_su2",
    "sigma1", "sigma3", "squeeze", "su11_generators", "swap_composed", "swap_direct",
    "tensor_op", "tensor_state", "total_number_projector",
]


def test_public_names_are_pinned():
    assert quswap.__all__ == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 47
    assert all(hasattr(quswap, name) for name in PUBLIC_NAMES)
