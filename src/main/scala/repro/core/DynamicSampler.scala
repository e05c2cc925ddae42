package repro.core

import java.util.SplittableRandom

/** A dynamic weighted sampler over candidates `0 until size`, the interface
  * paper Table 1 compares samplers on: insert appends a candidate, delete
  * removes the `i`-th, sample draws an index with probability ∝ its weight.
  */
trait DynamicSampler {
  def size: Int
  def insert(w: Double): Unit
  def delete(i: Int): Unit
  def sample(rng: SplittableRandom): Int
  def memoryBytes: Long
}
