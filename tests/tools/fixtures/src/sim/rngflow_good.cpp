// Fixture: clean counterpart — the Rng is seeded from configuration and
// schedule times come from simulated state only. Zero rng-flow findings.
namespace fixture::sim {

struct Rng {
  explicit Rng(unsigned long long seed);
  unsigned long long next();
};

struct Engine {
  void schedule_at(double t, void* h);
};

void seeded_run(Engine& eng, unsigned long long cfg_seed) {
  Rng rng(cfg_seed);
  eng.schedule_at(1.5, nullptr);
}

}  // namespace fixture::sim
