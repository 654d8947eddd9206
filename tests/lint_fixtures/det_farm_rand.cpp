// det-rand fixture, farm flavour: entropy in worker selection or
// sweep-start shuffling breaks the run farm's bit-identical contract
// (src/farm/ hands out task indices from one shared counter instead).
#include <cstddef>
#include <random>

std::size_t entropy_victim(std::size_t workers) {
  std::random_device rd;
  return rd() % workers;
}

std::size_t shuffled_sweep_start(std::size_t workers) {
  std::mt19937 gen;
  return gen() % workers;
}
