// Authentication outcome table (paper Secs 3 and 5, no single figure):
// zero-Hamming-distance authentication success of the model-assisted scheme
// across all 9 V/T corners, against two baselines:
//   - random challenges (traditional scheme, no stability selection),
//   - measurement-based selection at nominal only (prior art [1], which
//     cannot anticipate V/T drift without extra corner testing).
#include <cstdio>

#include "bench_common.hpp"
#include "puf/authentication.hpp"
#include "puf/database.hpp"
#include "puf/threshold_adjust.hpp"

int main(int argc, char** argv) {
  using namespace xpuf;
  benchutil::BenchHarness bench(argc, argv, "tabB_authentication",
                                "Tab B: zero-HD authentication across V/T corners");
  const BenchScale& scale = bench.scale();

  const std::size_t n_pufs = 10;
  sim::ChipPopulation pop(benchutil::population_config(scale, n_pufs));
  Rng rng = pop.measurement_rng();
  auto& chip = pop.chip(0);

  // Enrollment + V/T beta adjustment.
  puf::EnrollmentConfig ecfg;
  ecfg.training_challenges = 5'000;
  ecfg.trials = scale.trials;
  puf::ServerModel model = puf::Enroller(ecfg).enroll(chip, rng);
  const std::size_t eval_n =
      scale.full ? 50'000 : std::min<std::size_t>(scale.challenges, 8'000);
  const auto eval_challenges = puf::random_challenges(chip.stages(), eval_n, rng);
  std::vector<puf::EvaluationBlock> blocks;
  for (const auto& env : sim::paper_corner_grid())
    blocks.push_back(
        puf::measure_evaluation_block(chip, eval_challenges, env, scale.trials, rng));
  model.set_betas(puf::find_betas(model, blocks).betas);

  // Measurement-based baseline: CRPs measured 100% stable at nominal only.
  puf::MeasurementBasedSelector meas_sel(chip, sim::Environment::nominal(),
                                         scale.trials, n_pufs);
  const std::size_t batch_size = 64;
  const std::size_t rounds = scale.full ? 20 : 8;
  puf::SelectionResult meas_batch = meas_sel.select(batch_size, rng);

  puf::AuthenticationServer server(model, n_pufs, {.challenge_count = batch_size});

  // After selection/enrollment artifacts exist, deploy the chip.
  chip.blow_fuses();

  Table t("Tab B: mismatches per " + std::to_string(batch_size) +
          "-CRP batch, averaged over " + std::to_string(rounds) + " rounds");
  t.set_header({"corner", "model-selected", "pass rate", "random challenges",
                "pass rate", "meas.-selected@nominal", "pass rate"});
  CsvWriter csv(benchutil::out_dir() + "/tabB_authentication.csv",
                {"corner", "model_mismatch", "model_pass", "random_mismatch",
                 "random_pass", "meas_mismatch", "meas_pass"});

  for (const auto& env : sim::paper_corner_grid()) {
    double model_mis = 0, random_mis = 0, meas_mis = 0;
    std::size_t model_pass = 0, random_pass = 0, meas_pass = 0;
    for (std::size_t r = 0; r < rounds; ++r) {
      const auto m = server.authenticate(chip, env, rng, /*model_selected=*/true);
      model_mis += static_cast<double>(m.mismatches);
      model_pass += m.approved;
      const auto rm = server.authenticate(chip, env, rng, /*model_selected=*/false);
      random_mis += static_cast<double>(rm.mismatches);
      random_pass += rm.approved;
      // Measurement-selected batch, one-shot sampled at this corner.
      std::size_t mm = 0;
      for (std::size_t i = 0; i < meas_batch.challenges.size(); ++i) {
        const bool resp = chip.xor_response(meas_batch.challenges[i], env, rng);
        if (resp != meas_batch.expected_responses[i]) ++mm;
      }
      meas_mis += static_cast<double>(mm);
      meas_pass += (mm == 0);
    }
    const double rd = static_cast<double>(rounds);
    t.add_row({env.label(), Table::num(model_mis / rd, 2),
               Table::pct(static_cast<double>(model_pass) / rd, 0), Table::num(random_mis / rd, 2),
               Table::pct(static_cast<double>(random_pass) / rd, 0), Table::num(meas_mis / rd, 2),
               Table::pct(static_cast<double>(meas_pass) / rd, 0)});
    csv.write_row(std::vector<std::string>{
        env.label(), Table::num(model_mis / rd, 3), Table::num(static_cast<double>(model_pass) / rd, 3),
        Table::num(random_mis / rd, 3), Table::num(static_cast<double>(random_pass) / rd, 3),
        Table::num(meas_mis / rd, 3), Table::num(static_cast<double>(meas_pass) / rd, 3)});
    std::fprintf(stderr, "  [tabB] %s done\n", env.label().c_str());
  }
  t.print();
  std::printf("\npaper claim: model-selected CRPs allow a zero-Hamming-distance "
              "criterion at every corner; random CRPs cannot (one-shot XOR sampling "
              "hits unstable responses), and nominal-only measured selection degrades "
              "once V/T moves.\n");

  // Replay-protection accounting: a server that reuses its issuance RNG seed
  // (restart, misconfiguration, or an adversary replaying a recorded session)
  // re-draws challenges already in the device's ledger. The database must
  // refuse them, refill the batch from fresh draws, and COUNT the rejections
  // — the per-device issuance signal that makes chosen-challenge probing
  // observable.
  puf::ServerDatabase db(
      puf::DatabaseConfig{.n_pufs = n_pufs, .policy = {.challenge_count = batch_size}, .pool = {}});
  db.register_device(model);
  Rng first_session(424242);
  const puf::DatabaseAuthOutcome first =
      db.authenticate(chip, sim::Environment::nominal(), first_session);
  Rng replayed_session(424242);  // same seed: identical candidate stream
  const puf::DatabaseAuthOutcome second =
      db.authenticate(chip, sim::Environment::nominal(), replayed_session);
  std::printf("\nreplay ledger: first auth tried %zu candidates (0 replays), "
              "re-seeded second auth rejected %zu replayed challenges, refilled, "
              "and %s (ledger now %zu challenges)\n",
              first.outcome.candidates_tried, second.replay_rejected,
              second.outcome.approved ? "approved" : "DENIED",
              db.issued_count(chip.id()));
  return 0;
}
