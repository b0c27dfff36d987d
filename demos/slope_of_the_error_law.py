"""The 1/n error law of leave-one-out risk estimation, measured.

Theory says E (LO - Err_out)^2 <= C_v / n, and the rate is sharp: a
log-log regression of observed MSE on n should have slope near -1.  This
is the desk-scale version of that measurement for the elastic-net linear
study; expect a couple of minutes.
"""

from loorisk import LossSpec, ModelSpec, RegSpec, SimConfig, run_table1

config = SimConfig(
    ns=(30, 60, 90), p_ratio=10.0, k_ratio=0.1, sigma="identity/n",
    noise_var=1.0, beta_dist="laplace_unit", family="linear",
    reps=20, seed=11,
)
model = ModelSpec(LossSpec("squared"), RegSpec("elastic_net", mix=0.5), lam=5.0)

result = run_table1(config, model)

print(f"{'n':>5s}  {'p':>6s}  {'MSE':>9s}  {'SE':>9s}")
for row in result.rows:
    print(f"{row['n']:5d}  {row['p']:6d}  {row['mse']:9.5f}  {row['mse_se']:9.5f}")

sf = result.slope_fit
print()
print(f"log(MSE) ~ log(n): slope = {sf['slope']:.3f} (SE {sf['slope_se']:.3f}), "
      f"intercept = {sf['intercept']:.2f}, adj R^2 = {sf['adj_r2']:.3f}")
print("A slope near -1 is the 1/n law; at full scale (table1_full preset)")
print("the fitted slope for this design is -1.0 up to sampling noise.")
