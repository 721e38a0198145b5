import specmd

DELETED = ("GradSample", "power_value_grad", "sym_identity", "sym_zeros",
           "eval_Psi", "resolve_oracle", "schedule_at", "mat_power_apply")


def test_every_exported_name_resolves():
    missing = [name for name in specmd.__all__ if not hasattr(specmd, name)]
    assert missing == []
    assert len(set(specmd.__all__)) == len(specmd.__all__)


def test_deleted_names_are_not_exported():
    for name in DELETED:
        assert name not in specmd.__all__
        assert not hasattr(specmd, name)
