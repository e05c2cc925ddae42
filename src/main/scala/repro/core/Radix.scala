package repro.core

/** The bias arithmetic around the radix decomposition of paper §4.1.
  *
  * `D(w) = { 2^k | w & 2^k != 0 }` (Eq. 3) splits an integer bias into
  * sub-biases by its set bits, and radix group `p_k` weighs
  * `W(p_k) = |G_k| · 2^k` (Eq. 4); [[BingoVertex]] does both inline on a
  * slot's bias word. This object holds the float side (§4.3–4.4):
  * floating-point biases are first scaled by an amortisation factor λ; the
  * integer part is radix-decomposed and the decimal remainders of all
  * neighbors are pooled into one extra *decimal group*.
  */
object Radix {

  /** The exclusive upper bound of a λ-scaled bias. */
  val TwoPow63: Double = math.pow(2, 63)

  /** Scaled decomposition of a floating-point bias (paper §4.3).
    *
    * @return (integer part of λ·w, decimal remainder of λ·w ∈ [0,1))
    */
  def scaleFloat(w: Double, lambda: Double): (Long, Double) = {
    require(w > 0.0 && !w.isInfinite, s"bias must be positive and finite: $w")
    require(lambda > 0.0, s"lambda must be positive: $lambda")
    val scaled = w * lambda
    // a larger integer part would saturate the Long cast below
    require(scaled < TwoPow63, s"λ-scaled bias $scaled (w=$w, λ=$lambda) must be below 2^63")
    val intPart = math.floor(scaled).toLong
    val dec = scaled - intPart
    (intPart, dec)
  }

  /** Decimal-group mass fraction W_D / (W_I + W_D) — the paper tunes λ so
    * this stays below 1/d, preserving O(1) expected sampling (§4.4).
    */
  def decimalMassFraction(biases: Array[Double], lambda: Double): Double = {
    var wi = 0.0
    var wd = 0.0
    biases.foreach { b =>
      val (i, d) = scaleFloat(b, lambda)
      wi += i.toDouble
      wd += d
    }
    if (wi + wd == 0.0) 0.0 else wd / (wi + wd)
  }

  /** Smallest power-of-10 λ that keeps the decimal mass below 1/d, bounded
    * by `cap` and by the largest power of 10 that keeps λ·max(w) < 2^63 (the
    * range of [[scaleFloat]]). Mirrors the paper's "empirically determine an
    * amortisation factor" step.
    */
  def chooseLambda(biases: Array[Double], cap: Double = 1e9): Double = {
    require(biases.nonEmpty, "need at least one bias")
    val target = 1.0 / biases.length
    val maxW = biases.max
    var lambda = 1.0
    while (lambda < cap && decimalMassFraction(biases, lambda) >= target && maxW * (lambda * 10.0) < TwoPow63)
      lambda *= 10.0
    lambda
  }
}
