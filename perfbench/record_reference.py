"""Record the scale-fit references: python3 perfbench/record_reference.py

Fits every instance of the scale-fit workload at every penalty and
stores, per fit, the nonzeros of the lower triangle of K_opt = S^-1 + L_opt
(sparse: the prior's edges, the diagonal and the few edges a plp fit
adds), from which the check rebuilds t_opt = K_opt^-1. Run it only on a
commit whose fits are known to be right; the stored file is the oracle
that later commits are checked against.
"""

import os
import sys

os.environ["OPENBLAS_NUM_THREADS"] = "1"
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from ggmlink import solver  # noqa: E402


def main() -> int:
    arrays = {}
    for seed in workloads.SCALE_INSTANCE_SEEDS:
        inst = workloads.scale_instance(seed)
        t_hat = workloads.ggm.sample_covariance(inst.obs)
        for kind, gamma in workloads.SCALE_FITS:
            result = solver.solve(inst.prior, t_hat,
                                  workloads.penalty_spec(kind, gamma))
            if not result.converged:
                print(f"seed {seed} {kind} {gamma}: did not converge",
                      file=sys.stderr)
                return 1
            k_opt = np.tril(inst.prior.precision.to_array()
                            + result.lambda_opt.to_array())
            rows, cols = np.nonzero(k_opt)
            key = workloads.reference_key(seed, kind, gamma)
            arrays[f"{key}_dim"] = np.array(k_opt.shape[0])
            arrays[f"{key}_rows"] = rows.astype(np.int32)
            arrays[f"{key}_cols"] = cols.astype(np.int32)
            arrays[f"{key}_vals"] = k_opt[rows, cols]
            err = workloads.t_opt_error(
                result.t_opt.to_array(),
                np.linalg.inv(k_opt + np.tril(k_opt, -1).T))
            print(f"seed {seed} {kind} {gamma:g}: {result.iterations} iters, "
                  f"{rows.size} nonzeros, rebuild error {err:.2e}", flush=True)
    np.savez_compressed(workloads.REFERENCE_PATH, **arrays)
    return 0


if __name__ == "__main__":
    sys.exit(main())
