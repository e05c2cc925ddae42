package repro.core

import java.util.SplittableRandom

/** BINGO's per-vertex radix-factorized sampling structure (paper §4–§5).
  *
  * Every neighbor occupies a *slot* of the Hornet-style [[SlotStore]], which
  * this class extends with its bias columns (`biasIntArr`, `decArr`). Each
  * bias's integer part is decomposed by its set bits (Eq. 3); slots sharing
  * bit `k` form radix group `p_k` with weight `|G_k|·2^k` (Eq. 4). The
  * decimal remainders (§4.3, taken at scale 1) form one more group,
  * [[BingoVertex.DecimalGroup]] = 63, weighted by their sum: a bias is below
  * [[BingoVertex.TwoPow63]], so its integer part never sets bit 63, and that
  * bit of a slot's bias word marks "has a decimal" and the word is the
  * slot's full group mask. Only the non-empty
  * groups are stored, in ascending id. Sampling is hierarchical (§4.1): a
  * scan of the prefix sums of those groups' weights picks one in O(K), K
  * ≤ 64 fixed by the bias width (the paper uses an alias table here; the
  * prefix sums are refilled in place, with no per-batch allocation), then
  * uniform intra-group sampling picks a slot in O(1); in the decimal group
  * the pick is accepted with probability `dec/max dec`.
  * Every update goes through the paper's per-vertex insert → delete →
  * rebuild workflow with the two-phase parallel delete-and-swap (§5.2,
  * Fig. 10b); a streaming insert/delete (§4.2) is a batch of one and costs
  * O(K). Groups adapt their representation (dense / one-element / sparse /
  * regular, §5.1) to cut memory.
  *
  * Duplicate edges are allowed; a deletion removes the *earliest* surviving
  * instance of (vertex, dst), per the paper's timestamped-duplicate rule.
  *
  * @param adaptive    false reproduces the BaSeline (BS) all-regular design
  * @param conversions optional shared collector for Table 4 statistics
  */
final class BingoVertex(
    val adaptive: Boolean = true,
    val conversions: ConversionStats = null,
) extends SlotStore(BingoVertex.InitialCap) {

  import BingoVertex._

  // ---- Bias columns of the slots ----------------------------------------
  private var biasIntArr = new Array[Long](InitialCap) // integer part | DecimalBit
  private var decArr: Array[Double] = null // decimal remainders; allocated on demand

  // ---- Groups: radix groups 0..62, the decimal group 63 -----------------
  // Only the non-empty groups are kept, in ascending id: bit k of `active` is
  // set iff group k is non-empty, and cumWeight(i) is the summed weight of
  // groups(0..i) (Eq. 5); null while there are no groups.
  private var groups: Array[Group] = NoGroups
  private var active = 0L
  private var cumWeight: Array[Double] = null
  private var decSum = 0.0 // weight of the decimal group
  private var decMax = 0.0 // largest decimal: its rejection bound

  // =======================================================================
  // Public API
  // =======================================================================

  def scaledIntBiasAt(slot: Int): Long = biasIntArr(slot) & ~DecimalBit
  def decimalAt(slot: Int): Double = if (decArr == null) 0.0 else decArr(slot)

  /** Streaming insertion (§4.2, Fig. 5): a batch of one. O(K). */
  def insert(dst: Int, bias: Double): Unit = applyBatch(Array(dst), Array(bias), Array(true), 0, 1)

  /** Streaming deletion (§4.2, Fig. 6) of the earliest instance of (v, dst):
    * a batch of one. O(K).
    *
    * @return false if no instance of (v, dst) exists
    */
  def delete(dst: Int): Boolean = applyBatch(Array(dst), Array(0.0), Array(false), 0, 1) == 1

  /** Batched updates for this vertex (§5.2, Fig. 10a): entries
    * `from until until` of the `dst` / `bias` / `insert` columns, in
    * timestamp order. Insert all, delete all (two-phase parallel
    * delete-and-swap per group, Fig. 10b), then one rebuild pass that
    * handles the touched groups' type conversions and refills the group
    * weights' prefix sums. The only code that changes a vertex.
    *
    * @return number of deletions actually applied
    */
  def applyBatch(dst: Array[Int], bias: Array[Double], insert: Array[Boolean], from: Int, until: Int): Int = {
    // Groups an update actually landed in — only these are reconsidered for
    // a type conversion in the rebuild phase (§5.2: conversions are driven
    // by the insertions/deletions a group received, not by drift of d).
    var touchedBits = 0L

    // -- insert phase: append slots; groups absorb without reclassification
    var deletes = 0
    var i = from
    while (i < until) {
      if (!insert(i)) deletes += 1
      else {
        val slot = appendNeighbor(dst(i), bias(i))
        var rest = biasIntArr(slot)
        touchedBits |= rest
        while (rest != 0) {
          groupInsert(java.lang.Long.numberOfTrailingZeros(rest), slot)
          rest &= rest - 1
        }
      }
      i += 1
    }

    // -- delete phase: resolve earliest instances, then compact
    val freed = new Array[Int](deletes) // distinct: takeEarliest unindexes
    var applied = 0
    i = from
    while (i < until) {
      val slot = if (insert(i)) -1 else takeEarliest(dst(i))
      if (slot >= 0) { freed(applied) = slot; applied += 1 }
      i += 1
    }
    if (applied > 0) touchedBits |= deleteSlots(freed, applied)

    // -- rebuild phase: conversions of the touched groups (every dirty group
    // was touched in this batch) + the group weights' prefix sums
    var rest = touchedBits
    while (rest != 0) {
      reclassify(java.lang.Long.numberOfTrailingZeros(rest))
      rest &= rest - 1
    }
    rebuildCumWeight()
    applied
  }

  /** Hierarchical sampling (§4.1): an O(K) group pick over the prefix sums
    * of the group weights, then a uniform (or dense-rejection) intra-group
    * draw, and in the decimal group the rejection step of §4.3.
    *
    * @return the sampled neighbor's dst, or -1 if the vertex has no mass
    */
  def sample(rng: SplittableRandom): Int = {
    val slot = sampleSlot(rng)
    if (slot < 0) -1 else dstArr(slot)
  }

  private def sampleSlot(rng: SplittableRandom): Int = {
    val last = groups.length - 1
    if (last < 0) return -1
    val r = rng.nextDouble() * cumWeight(last)
    // bounded at the last group, which also takes a product rounded up to the total
    var i = 0
    while (i < last && r >= cumWeight(i)) i += 1
    val g = groups(i)
    var slot = pick(g, rng)
    // a decimal member is kept with probability dec/decMax, so P = dec/decSum
    if (g.k == DecimalGroup) while (rng.nextDouble() * decMax >= decArr(slot)) slot = pick(g, rng)
    slot
  }

  /** A uniformly drawn member of group `g`. */
  private def pick(g: Group, rng: SplittableRandom): Int = g.tpe match {
    case GroupType.OneElement => g.oneSlot
    case GroupType.Regular | GroupType.Sparse => g.list(rng.nextInt(g.count))
    case GroupType.Dense =>
      // rejection on the original neighbor list: accept iff bit k set
      val mask = 1L << g.k
      var slot = rng.nextInt(d)
      while ((biasIntArr(slot) & mask) == 0L) slot = rng.nextInt(d)
      slot
  }

  // ---- Introspection for tests, stats and memory accounting -------------

  /** Probability of each dst *derived from the live data structures*
    * (Eq. 7): Σ_k P(p_k)·P(slot|p_k), with P(p_k) read off the prefix sums
    * that [[sample]] scans and P(slot|p_k) off the group contents. By
    * Theorem 4.1 this must equal w/Σw over the slots' biases (Eq. 2) exactly.
    * O(d·K).
    */
  def distribution: Map[Int, Double] = {
    val p = scala.collection.mutable.HashMap.empty[Int, Double]
    var prev = 0.0
    var i = 0
    while (i < groups.length) {
      val g = groups(i)
      val k = g.k
      val mask = 1L << k
      // P(p_k) / W(p_k): the mass of one member slot is its bias share in p_k.
      // The decimal group's weight and masses enter times 2^64: exact, so each
      // product is unchanged, and the quotient stays finite for a subnormal decSum
      val unit = if (k == DecimalGroup) DecimalUnit else 1.0
      val share = (cumWeight(i) - prev) / cumWeight(groups.length - 1) / (weight(g) * unit)
      prev = cumWeight(i)
      def add(slot: Int): Unit = {
        val dst = dstArr(slot)
        p(dst) = p.getOrElse(dst, 0.0) + share * (if (k == DecimalGroup) decArr(slot) * unit else mask.toDouble)
      }
      g.tpe match {
        case GroupType.OneElement => add(g.oneSlot)
        case GroupType.Regular | GroupType.Sparse =>
          var j = 0
          while (j < g.count) { add(g.list(j)); j += 1 }
        case GroupType.Dense =>
          var j = 0
          while (j < d) { if ((biasIntArr(j) & mask) != 0L) add(j); j += 1 }
      }
      i += 1
    }
    p.toMap
  }

  def structProbabilityOf(dst: Int): Double = distribution.getOrElse(dst, 0.0)

  def groupTypeOf(k: Int): Option[GroupType] = if (isActive(k)) Some(group(k).tpe) else None
  def groupCountOf(k: Int): Int = if (isActive(k)) group(k).count else 0
  /** Ids of the non-empty groups: radix bits, then [[BingoVertex.DecimalGroup]]. */
  def activeGroupBits: Seq[Int] = groups.map(_.k).toSeq

  /** Retained bytes of the vertex: the object, its adjacency slots, bias
    * columns, groups with their inverted indexes, and the group weights'
    * prefix sums.
    */
  def memoryBytes: Long = {
    // 8 references, d, active / decSum / decMax, adaptive
    var m = Heap.obj(8 * Heap.Ref + 4 + 3 * 8 + 1) + slotBytes + Heap.array(biasIntArr.length, 8)
    if (decArr != null) m += Heap.array(decArr.length, 8)
    if (groups.length > 0) m += Heap.array(groups.length, Heap.Ref) + Heap.array(cumWeight.length, 8) // the empty array is shared
    var i = 0
    while (i < groups.length) { m += groups(i).memoryBytes; i += 1 }
    m
  }

  /** Fail-fast structural invariant check (test support). */
  def validate(): Unit = {
    // the stored groups are the active ones, in ascending id
    val ids = activeGroupBits
    require(ids == (0 to DecimalGroup).filter(isActive), s"groups $ids vs active ${active.toBinaryString}")
    // group counts and memberships, over all 64 ids
    var k = 0
    while (k <= DecimalGroup) {
      val mask = 1L << k
      var expect = 0
      var i = 0
      while (i < d) { if ((biasIntArr(i) & mask) != 0L) expect += 1; i += 1 }
      val g = if (isActive(k)) group(k) else null
      val got = if (g == null) 0 else g.count
      require(got == expect && (g == null || got > 0), s"group $k count $got != expected $expect")
      if (g != null) {
        g.tpe match {
          case GroupType.OneElement =>
            require(g.count == 1 && (biasIntArr(g.oneSlot) & mask) != 0L, s"one-element group $k broken")
          case GroupType.Regular | GroupType.Sparse =>
            var j = 0
            while (j < g.count) {
              val slot = g.list(j)
              require((biasIntArr(slot) & mask) != 0L, s"group $k member $slot lacks bit")
              require(g.posOf(slot) == j, s"group $k inverted index wrong for slot $slot")
              j += 1
            }
          case GroupType.Dense => // nothing stored
        }
      }
      k += 1
    }
    // the decimal bit marks exactly the slots with a decimal; its weight and bound
    var sum = 0.0
    var max = 0.0
    var i = 0
    while (i < d) {
      val dec = decimalAt(i)
      require((biasIntArr(i) < 0L) == (dec > 0.0), s"slot $i: decimal bit disagrees with decimal $dec")
      sum += dec
      max = math.max(max, dec)
      i += 1
    }
    require(math.abs(sum - decSum) < 1e-9, s"decSum drift: $sum vs $decSum")
    require(max == decMax, s"decMax $decMax != largest decimal $max")
    validateSlots()
  }

  // =======================================================================
  // Internals
  // =======================================================================

  private def touch(t: GroupType): Unit = if (conversions != null) conversions.recordTouch(t)

  /** Append a slot for (dst, bias): the integer part is exact below 2^63. */
  private def appendNeighbor(dst: Int, bias: Double): Int = {
    require(bias > 0.0 && bias < TwoPow63, s"bias must be positive and below 2^63: $bias")
    val ip = bias.toLong
    val dec = bias - ip
    val slot = appendSlot(dst)
    biasIntArr(slot) = ip
    if (dec > 0.0) {
      if (decArr == null) decArr = new Array[Double](capacity)
      decArr(slot) = dec
      biasIntArr(slot) |= DecimalBit
      decSum += dec
      decMax = math.max(decMax, dec)
    } else if (decArr != null) decArr(slot) = 0.0
    slot
  }

  protected def growColumns(cap: Int): Unit = {
    biasIntArr = java.util.Arrays.copyOf(biasIntArr, cap)
    if (decArr != null) decArr = java.util.Arrays.copyOf(decArr, cap)
    groups.foreach { g =>
      if (g.tpe == GroupType.Regular) {
        val old = g.inv.length
        g.inv = java.util.Arrays.copyOf(g.inv, cap)
        java.util.Arrays.fill(g.inv, old, cap, -1)
      }
    }
  }

  private def isActive(k: Int): Boolean = (active >>> k & 1L) != 0L
  /** Index of active group `k` in `groups`, and so in `cumWeight`. */
  private def indexOf(k: Int): Int = java.lang.Long.bitCount(active & ((1L << k) - 1))
  private def group(k: Int): Group = groups(indexOf(k))

  /** Group `k`'s birth with its first member `slot`: a new entry, in id order. O(K). */
  private def addGroup(k: Int, slot: Int): Unit = {
    val g = new Group(k)
    g.count = 1
    g.tpe = GroupType.classify(1, d, adaptive)
    if (g.tpe == GroupType.OneElement) g.oneSlot = slot else g.setMembers(this, Array(slot))
    val i = indexOf(k)
    val a = java.util.Arrays.copyOf(groups, groups.length + 1)
    System.arraycopy(groups, i, a, i + 1, groups.length - i)
    a(i) = g
    groups = a
    active |= 1L << k
  }

  /** Group `k`'s death: its entry goes. O(K). */
  private def removeGroup(k: Int): Unit = {
    val i = indexOf(k)
    System.arraycopy(groups, i + 1, groups, i, groups.length - i - 1)
    groups = java.util.Arrays.copyOf(groups, groups.length - 1)
    active &= ~(1L << k)
  }

  /** Insert `slot` into group `k`; conversions wait for the rebuild phase. */
  private def groupInsert(k: Int, slot: Int): Unit =
    if (!isActive(k)) addGroup(k, slot)
    else {
      val g = group(k)
      touch(g.tpe)
      g.tpe match {
        case GroupType.Dense => // nothing maintained
        case GroupType.OneElement => g.dirty = true // cannot absorb a 2nd member
        case GroupType.Regular | GroupType.Sparse => g.append(slot)
      }
      g.count += 1
    }

  /** Re-point the group references of a slot that moved oldSlot →
    * newSlot, then move its bias columns.
    */
  protected def moveSlot(oldSlot: Int, newSlot: Int): Unit = {
    var rest = biasIntArr(oldSlot)
    while (rest != 0) {
      val g = group(java.lang.Long.numberOfTrailingZeros(rest))
      g.tpe match {
        case GroupType.Dense => // positions not stored
        case GroupType.OneElement => g.oneSlot = newSlot
        case GroupType.Regular | GroupType.Sparse =>
          val pos = g.posOf(oldSlot)
          g.list(pos) = newSlot
          g.clearPos(oldSlot)
          g.setPos(newSlot, pos)
      }
      rest &= rest - 1
    }
    biasIntArr(newSlot) = biasIntArr(oldSlot)
    if (decArr != null) decArr(newSlot) = decArr(oldSlot)
  }

  /** Delete phase of a batch (§5.2, Fig. 10b): take the `n` freed slots
    * out of their groups, compact each list group's member list and then
    * the slot arrays with [[SlotStore.twoPhaseCompact]].
    *
    * @return the bias bits of the freed slots, i.e. the groups touched
    */
  private def deleteSlots(freed: Array[Int], n: Int): Long = {
    var touched = 0L
    var listBits = 0L // Regular / Sparse groups that lose members
    var maxGone = false // a freed decimal was decMax
    var i = 0
    while (i < n) {
      val slot = freed(i)
      if (biasIntArr(slot) < 0L) { decSum -= decArr(slot); maxGone ||= decArr(slot) == decMax }
      var rest = biasIntArr(slot)
      touched |= rest
      while (rest != 0) {
        val k = java.lang.Long.numberOfTrailingZeros(rest)
        val g = group(k)
        touch(g.tpe)
        g.tpe match {
          case GroupType.Dense =>
            g.count -= 1
            if (g.count == 0) removeGroup(k)
          case GroupType.OneElement =>
            g.count -= 1
            if (g.count == 0) removeGroup(k) else g.dirty = true
          case _ => listBits |= 1L << k
        }
        rest &= rest - 1
      }
      i += 1
    }
    val doomed = new Array[Int](n)
    var rest = listBits
    while (rest != 0) {
      val k = java.lang.Long.numberOfTrailingZeros(rest)
      val g = group(k)
      val mask = 1L << k
      var m = 0
      i = 0
      while (i < n) {
        val slot = freed(i)
        if ((biasIntArr(slot) & mask) != 0L) { doomed(m) = g.posOf(slot); g.clearPos(slot); m += 1 }
        i += 1
      }
      val list = g.list
      g.count = SlotStore.twoPhaseCompact(doomed, m, g.count) { (from, to) =>
        list(to) = list(from)
        g.setPos(list(to), to)
      }
      if (g.count == 0) removeGroup(k)
      rest &= rest - 1
    }
    compactSlots(freed, n)
    if ((active & DecimalBit) == 0L) { decSum = 0.0; decMax = 0.0 } // no rounding drift once empty
    else if (maxGone) decMax = java.util.Arrays.stream(decArr, 0, d).max().getAsDouble
    touched
  }

  /** Apply Eq. 9 to group `k`; on a type change rebuild its representation
    * (recorded as a conversion, paper Table 4).
    */
  private def reclassify(k: Int): Unit = {
    if (!isActive(k)) return
    val g = group(k)
    val target = GroupType.classify(g.count, d, adaptive)
    if (target != g.tpe || g.dirty) {
      if (target != g.tpe && conversions != null) conversions.recordConversion(g.tpe, target)
      g.tpe = target
      g.dirty = false
      g.setMembers(this, scanMembers(k, g.count))
    }
  }

  /** Weight of active group `g`: |G_k|·2^k for a radix group (Eq. 4), the
    * sum of the decimals for the decimal group (§4.3).
    */
  private def weight(g: Group): Double =
    if (g.k == DecimalGroup) decSum else g.count.toDouble * (1L << g.k).toDouble

  /** Refill the prefix sums of the active groups' weights (Eq. 5) in place;
    * the array is reallocated only when the number of groups changes.
    */
  private def rebuildCumWeight(): Unit = {
    val n = groups.length
    if (n == 0) cumWeight = null
    else if (cumWeight == null || cumWeight.length != n) cumWeight = new Array[Double](n)
    var sum = 0.0
    var i = 0
    while (i < n) { sum += weight(groups(i)); cumWeight(i) = sum; i += 1 }
  }

  /** The `count` slots whose bias word has bit `k` set, in slot order: the scan
    * behind a group's representation rebuild, and the new member list.
    */
  private[core] def scanMembers(k: Int, count: Int): Array[Int] = {
    val mask = 1L << k
    val out = new Array[Int](count)
    var n = 0
    var i = 0
    while (i < d) {
      if ((biasIntArr(i) & mask) != 0L) { if (n < count) out(n) = i; n += 1 }
      i += 1
    }
    require(n == count, s"group $k rebuild: scan $n != count $count")
    out
  }
}

object BingoVertex {
  private val InitialCap = 4

  /** Group id of the decimal group (float-bias mode, §4.3): bit 63, which
    * no positive `Long` bias sets, marks its members.
    */
  val DecimalGroup: Int = 63
  private val DecimalBit: Long = 1L << DecimalGroup

  /** The exclusive upper bound of a bias: its integer part must fit a
    * positive `Long`, below [[DecimalBit]].
    */
  val TwoPow63: Double = math.pow(2, 63)
  private val DecimalUnit: Double = math.pow(2, 64)

  private val NoGroups = new Array[Group](0)

  /** One group — radix group `p_k` or the decimal group — with its
    * adaptive representation (§5.1).
    */
  private final class Group(val k: Int) extends Serializable {
    var count: Int = 0
    var tpe: GroupType = GroupType.Regular
    /** Batch flag: representation must be rebuilt at the rebuild step. */
    var dirty: Boolean = false

    // Regular / Sparse: member list (intra-group neighbor index list) in
    // positions [0, count)
    var list: Array[Int] = null
    // Regular: slot-indexed inverted index; Sparse: hash inverted index
    var inv: Array[Int] = null
    var invMap: IntIntMap = null
    // One-element
    var oneSlot: Int = -1

    def posOf(slot: Int): Int =
      if (tpe == GroupType.Regular) inv(slot) else invMap.get(slot)
    def setPos(slot: Int, pos: Int): Unit =
      if (tpe == GroupType.Regular) inv(slot) = pos else invMap.put(slot, pos)
    def clearPos(slot: Int): Unit =
      if (tpe == GroupType.Regular) inv(slot) = -1 else invMap.remove(slot)

    /** Set the representation of type `tpe` over `members`, the group's
      * `count` slots; a Regular or Sparse group keeps the array as its list.
      */
    def setMembers(owner: BingoVertex, members: Array[Int]): Unit = {
      list = null; inv = null; invMap = null; oneSlot = -1
      tpe match {
        case GroupType.Dense => // nothing stored
        case GroupType.OneElement => oneSlot = members(0)
        case GroupType.Regular => list = members; inv = Array.fill(owner.capacity)(-1)
        case GroupType.Sparse => list = members; invMap = new IntIntMap
      }
      if (list != null) {
        var j = 0
        while (j < count) { setPos(list(j), j); j += 1 }
      }
    }

    /** Regular / Sparse insert: `slot` goes to list position `count`. */
    def append(slot: Int): Unit = {
      if (count == list.length) list = java.util.Arrays.copyOf(list, count * 2)
      list(count) = slot
      setPos(slot, count)
    }

    /** The object (4 references, 3 ints, `dirty`) and its representation. */
    def memoryBytes: Long = Heap.obj(4 * Heap.Ref + 3 * 4 + 1) + (tpe match {
      case GroupType.Dense | GroupType.OneElement => 0L
      case GroupType.Sparse => Heap.array(list.length, 4) + invMap.memoryBytes
      case GroupType.Regular => Heap.array(list.length, 4) + Heap.array(inv.length, 4)
    })
  }
}
