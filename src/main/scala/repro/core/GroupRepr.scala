package repro.core

import java.util.concurrent.atomic.LongAdder

/** Group categories of the adaptive group representation — paper §5.1, Eq. 9.
  *
  * For a vertex of degree `d`, radix group `G` is
  *  - Dense        if |G|/d > α%          (α = 40)  — keeps *no* index
  *    structures; intra-group sampling is rejection on the original neighbor
  *    list (`bias & 2^k != 0` accepts), rejection ratio ≤ 1 − α%.
  *  - One-element  if |G| = 1             — stores only the single slot
  *    (a one-entry list, no inverted index).
  *  - Sparse       if |G|/d < β% ∧ |G|≠1  (β = 10)  — compact member list
  *    plus a small hash inverted index ([[IntIntMap]]) instead of a d-sized array.
  *  - Regular      otherwise              — full intra-group neighbor index
  *    list + full (slot-indexed `Array[Int]`) inverted index.
  * [[BingoVertex]] keeps no type per group: what a group stores is its type,
  * and these objects name it for classification, the census and the counters.
  *
  * Eq. 9's cases overlap when d is tiny (a 1-element group of a degree-2
  * vertex is also >α%); we resolve ties in favour of the more specific
  * One-element class, then Dense, then Sparse.
  */
sealed abstract class GroupType(val id: Int, val label: String) extends Serializable
object GroupType {
  case object Dense extends GroupType(0, "Dense")
  case object Regular extends GroupType(1, "Regular")
  case object Sparse extends GroupType(2, "Sparse")
  case object OneElement extends GroupType(3, "One element")

  val All: Seq[GroupType] = Seq(Dense, Regular, Sparse, OneElement)

  /** Dense threshold α, percent of the degree (paper value). */
  val Alpha: Double = 40.0

  /** Sparse threshold β, percent of the degree (paper value). */
  val Beta: Double = 10.0

  /** Eq. 9 with thresholds [[Alpha]] and [[Beta]]; `adaptive = false`
    * reproduces the BaSeline (BS) design that keeps every group Regular.
    */
  def classify(count: Int, d: Int, adaptive: Boolean): GroupType = {
    if (count <= 0 || d <= 0) throw new IllegalArgumentException(s"requirement failed: classify needs count>0, d>0 (got $count, $d)")
    if (!adaptive) Regular
    else if (count == 1) OneElement
    else if (count * 100.0 / d > Alpha) Dense
    else if (count * 100.0 / d < Beta) Sparse
    else Regular
  }
}

/** Thread-safe counters of group-type conversions (paper Table 4) and of
  * group *touch* events (insertions/deletions applied to a group of a type).
  * A conversion is counted as it happens; touches are tallied per batch and
  * added once at the end of each [[BingoVertex.applyBatch]], so both are
  * exact after every call.
  */
final class ConversionStats extends Serializable {
  private val conv = Array.fill(4, 4)(new LongAdder)
  private val touch = Array.fill(4)(new LongAdder)

  /** Add one batch's touch tallies, indexed by [[GroupType.id]]. */
  def recordTouches(tallies: Array[Long]): Unit = {
    var t = 0
    while (t < tallies.length) { if (tallies(t) != 0L) touch(t).add(tallies(t)); t += 1 }
  }
  def recordConversion(from: GroupType, to: GroupType): Unit = conv(from.id)(to.id).increment()

  def conversions(from: GroupType, to: GroupType): Long = conv(from.id)(to.id).sum()
  def touches(from: GroupType): Long = touch(from.id).sum()

  def totalConversions: Long = GroupType.All.flatMap(f => GroupType.All.map(t => conversions(f, t))).sum
  def totalTouches: Long = GroupType.All.map(touches).sum

  def reset(): Unit = {
    conv.foreach(_.foreach(_.reset()))
    touch.foreach(_.reset())
  }
}
