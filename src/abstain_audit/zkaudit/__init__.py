from .circuit import Circuit, ZkArray, zk_bin_check, zk_bin_update
from .fixedpoint import (FixedPointParams, FxAuditState, QuantizedModel,
                         alpha_to_fixed, dequantize_model, fx_argmax, fx_audit,
                         fx_bin, fx_confidence, fx_forward, quantize_model,
                         quantize_value, quantize_vec)
from .protocol import AuditResult, run_audit, run_local_audit

__all__ = [
    "AuditResult", "Circuit", "FixedPointParams", "FxAuditState",
    "QuantizedModel", "ZkArray", "alpha_to_fixed",
    "dequantize_model", "fx_argmax", "fx_audit", "fx_bin", "fx_confidence",
    "fx_forward", "quantize_model", "quantize_value", "quantize_vec",
    "run_audit", "run_local_audit", "zk_bin_check", "zk_bin_update",
]
