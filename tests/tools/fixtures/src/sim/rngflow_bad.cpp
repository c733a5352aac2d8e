// Fixture: non-Rng entropy flowing into simulated decisions. The
// determinism rule bans the raw sources at their use sites; rng-flow must
// still catch the *flow* when the ban is escaped or the value leaks
// through a helper's return.
namespace fixture::sim {

struct Engine {
  void schedule_at(double t, void* h) {}
};

struct Rng {
  explicit Rng(unsigned long long seed) {}
  void reseed(unsigned long long seed) {}
};

unsigned long long mix64(unsigned long long x);

double ambient_noise() {
  // vmlint:allow(determinism) fixture: rng-flow needs a live entropy source
  return static_cast<double>(rand());
}

void seed_from_noise() {
  double noise = ambient_noise();
  Rng rng(static_cast<unsigned long long>(noise));  // rngflow-ctor
}

void mix_from_noise() {
  double noise = ambient_noise();
  mix64(static_cast<unsigned long long>(noise));  // rngflow-mix
}

void schedule_from_noise(Engine& eng) {
  double noise = ambient_noise();
  eng.schedule_at(0.001 * noise, nullptr);  // rngflow-schedule
}

void engine_seed() {
  // vmlint:allow(determinism) fixture: raw engine feeds the flow test
  auto gen = std::mt19937(7);
  Rng rng(gen());  // rngflow-engine-ctor
}

}  // namespace fixture::sim
