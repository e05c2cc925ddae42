package roundbench

/** Order statistics used for every reported timing. */
object Stats {

  /** Median (mean of the two middle values for an even count). */
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** Nearest-rank percentile: the smallest sample with at least `p`% of
    * the samples at or below it.
    */
  def percentile(xs: Seq[Double], p: Double): Double = {
    require(xs.nonEmpty, "percentile of no samples")
    require(p > 0 && p <= 100, s"percentile $p outside (0, 100]")
    val s = xs.sorted
    s(rank(s.length, p) - 1)
  }

  /** Samples strictly above the nearest-rank `p`th percentile of `n`. */
  def beyond(n: Int, p: Double): Int = n - rank(n, p)

  private def rank(n: Int, p: Double): Int = math.max(1, math.ceil(p / 100.0 * n - 1e-9).toInt)

  /** The tail: the highest whole percentile with at least `minBeyond`
    * samples beyond it, and its value; None when even the median has fewer.
    */
  def tail(xs: Seq[Double], minBeyond: Int = 10): Option[(Double, Double)] =
    (99 to 50 by -1).map(_.toDouble).find(p => beyond(xs.length, p) >= minBeyond).map(p => (p, percentile(xs, p)))
}
