package repro.core

/** Paper §4.4's rule for the amortisation factor λ of §4.3: λ multiplies
  * all of a vertex's float biases before the radix split, and is picked so
  * that the decimal group's mass stays below 1/d, which keeps a draw's
  * expected cost O(1). One λ per vertex only rescales its biases, so the
  * program inserts biases at scale 1; these tests state the rule on biases
  * scaled here, as `insert(dst, w * λ)` would receive them.
  */
object LambdaRule {

  /** Decimal-group mass fraction W_D / (W_I + W_D) of the biases scaled by λ. */
  def decimalMassFraction(biases: Array[Double], lambda: Double): Double = {
    var wi = 0.0
    var wd = 0.0
    biases.foreach { b =>
      val scaled = b * lambda
      require(scaled < BingoVertex.TwoPow63, s"λ-scaled bias $scaled (w=$b, λ=$lambda) must be below 2^63")
      val ip = scaled.toLong
      wi += ip.toDouble
      wd += scaled - ip
    }
    if (wi + wd == 0.0) 0.0 else wd / (wi + wd)
  }

  /** Smallest power-of-10 λ that keeps the decimal mass below 1/d, bounded
    * by `cap` and by the largest power of 10 that keeps λ·max(w) < 2^63 (the
    * range of a bias). Mirrors the paper's "empirically determine an
    * amortisation factor" step.
    */
  def chooseLambda(biases: Array[Double], cap: Double = 1e9): Double = {
    require(biases.nonEmpty, "need at least one bias")
    val target = 1.0 / biases.length
    val maxW = biases.max
    var lambda = 1.0
    while (lambda < cap && decimalMassFraction(biases, lambda) >= target && maxW * (lambda * 10.0) < BingoVertex.TwoPow63)
      lambda *= 10.0
    lambda
  }
}
