package repro.core

/** Radix-based bias decomposition — paper §4.1, Equations (3) and (4).
  *
  * `D(w) = { 2^k | w & 2^k != 0 }` splits an integer bias into sub-biases by
  * its set bits; `W(p_k) = Σ_i (w_i & 2^k)` is the total weight of radix
  * group `p_k`. Because every member of group `p_k` contributes exactly
  * `2^k`, `W(p_k) = |G_k| · 2^k` and intra-group sampling is *unbiased*.
  *
  * Floating-point biases (paper §4.3) are first scaled by an amortisation
  * factor λ; the integer part is radix-decomposed and the decimal remainders
  * of all neighbors are pooled into one extra *decimal group*.
  */
object Radix {

  /** Highest bit a positive Long bias can set (bit 63 is the sign bit). */
  val MaxBits: Int = 62

  /** The exclusive upper bound of a λ-scaled bias. */
  val TwoPow63: Double = math.pow(2, 63)

  /** Bit positions set in `w` — the exponents of D(w) (Eq. 3). */
  def decompose(w: Long): Array[Int] = {
    require(w > 0, s"bias must be positive: $w")
    val out = new Array[Int](java.lang.Long.bitCount(w))
    var rest = w
    var i = 0
    while (rest != 0) {
      val k = java.lang.Long.numberOfTrailingZeros(rest)
      out(i) = k
      rest &= rest - 1
      i += 1
    }
    out
  }

  /** Σ of the sub-biases of D(w) — must equal w (used as a law in tests). */
  def recompose(bits: Array[Int]): Long = bits.foldLeft(0L)((acc, k) => acc | (1L << k))

  /** Group weights W(p_k) for a bias vector (Eq. 4); index k = bit position. */
  def groupWeights(biases: Array[Long]): Array[Long] = {
    val w = new Array[Long](MaxBits + 1)
    var i = 0
    while (i < biases.length) {
      var rest = biases(i)
      while (rest != 0) {
        val k = java.lang.Long.numberOfTrailingZeros(rest)
        w(k) += 1L << k
        rest &= rest - 1
      }
      i += 1
    }
    w
  }

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
