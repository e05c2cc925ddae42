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
  * regular, §5.1) to cut memory, and a group's representation is its type.
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
  // set iff group k is non-empty, and entry i of the group columns is the
  // i-th active group's. The representation is the adaptive type (§5.1):
  // One-element keeps `~slot` as its count (negative; the count of 1 is
  // implied) and nothing else, Dense its count and no list, Sparse a list
  // and an IntIntMap inverse, Regular a list and a slot-indexed inverse,
  // 16-bit (`Array[Char]`) while the capacity is at most
  // [[BingoVertex.MaxCharInverse]] slots and `Array[Int]` above. A list
  // holds its members in positions [0, count); an inverse entry of a
  // non-member is never read. A One-element group that gains members in a
  // batch keeps its count and [[BingoVertex.GrownOne]] as its list until
  // the rebuild phase. The columns hold exactly the active groups (null
  // without one); `reprs` holds group i's list at 2i and its inverse at
  // 2i + 1.
  private var active = 0L
  private var counts: Array[Int] = null
  private var reprs: Array[AnyRef] = null
  private var cumWeight: Array[Double] = null // summed weight of groups 0..i (Eq. 5)
  private var decSum = 0.0 // weight of the decimal group
  private var decMax = 0.0 // largest decimal: its rejection bound

  // =======================================================================
  // Public API
  // =======================================================================

  /** Slot `slot`'s integer bias, without the decimal bit (read by `Vertices` and the core and engine specs). */
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
    val s = scratch.get()
    java.util.Arrays.fill(s.touches, 0L)
    // Groups an update actually landed in — only these are reconsidered for
    // a type conversion in the rebuild phase (§5.2: conversions are driven
    // by the insertions/deletions a group received, not by drift of d).
    var touchedBits = 0L

    // -- insert phase: room for every insert at once, then append slots;
    // groups absorb without reclassification
    var deletes = 0
    var i = from
    while (i < until) { if (!insert(i)) deletes += 1; i += 1 }
    reserve(until - from - deletes)
    i = from
    while (i < until) {
      if (insert(i)) {
        val slot = appendNeighbor(dst(i), bias(i))
        var rest = biasIntArr(slot)
        touchedBits |= rest
        while (rest != 0) {
          groupInsert(java.lang.Long.numberOfTrailingZeros(rest), slot, s.touches)
          rest &= rest - 1
        }
      }
      i += 1
    }

    // -- delete phase: resolve earliest instances, then compact
    s.reserve(deletes)
    val freed = s.freed // distinct: takeEarliest unindexes
    var applied = 0
    i = from
    while (i < until) {
      val slot = if (insert(i)) -1 else takeEarliest(dst(i))
      if (slot >= 0) { freed(applied) = slot; applied += 1 }
      i += 1
    }
    if (applied > 0) touchedBits |= deleteSlots(freed, applied, s)

    // -- rebuild phase: conversions of the touched groups, a fresh entry for
    // each touched One-element group that lost its member + the group
    // weights' prefix sums
    var rest = touchedBits
    while (rest != 0) {
      reclassify(java.lang.Long.numberOfTrailingZeros(rest))
      rest &= rest - 1
    }
    rebuildCumWeight()
    if (conversions != null) conversions.recordTouches(s.touches)
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
    val last = java.lang.Long.bitCount(active) - 1
    if (last < 0) return -1
    val r = rng.nextDouble() * cumWeight(last)
    // bounded at the last group, which also takes a product rounded up to the total
    var i = 0
    var rest = active // its lowest bit is group i's id
    while (i < last && r >= cumWeight(i)) { i += 1; rest &= rest - 1 }
    val k = java.lang.Long.numberOfTrailingZeros(rest)
    var slot = pick(i, k, rng)
    // a decimal member is kept with probability dec/decMax, so P = dec/decSum;
    // both sides enter times 2^64, exact, so no product rounds as a subnormal
    if (k == DecimalGroup) {
      val bound = decMax * DecimalUnit
      while (rng.nextDouble() * bound >= decArr(slot) * DecimalUnit) slot = pick(i, k, rng)
    }
    slot
  }

  /** A uniformly drawn member of group `k`, the `i`-th active group. */
  private def pick(i: Int, k: Int, rng: SplittableRandom): Int = {
    val c = counts(i)
    if (c < 0) return ~c // One-element: no draw
    val list = reprs(2 * i)
    if (list == null) { // Dense: rejection on the original neighbor list, accept iff bit k set
      val mask = 1L << k
      var slot = rng.nextInt(d)
      while ((biasIntArr(slot) & mask) == 0L) slot = rng.nextInt(d)
      slot
    } else list.asInstanceOf[Array[Int]](rng.nextInt(c))
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
    val n = java.lang.Long.bitCount(active)
    var prev = 0.0
    var rest = active
    var i = 0
    while (i < n) {
      val k = java.lang.Long.numberOfTrailingZeros(rest)
      val mask = 1L << k
      // P(p_k) / W(p_k): the mass of one member slot is its bias share in p_k.
      // The decimal group's weight and masses enter times 2^64: exact, so each
      // product is unchanged, and the quotient stays finite for a subnormal decSum
      val unit = if (k == DecimalGroup) DecimalUnit else 1.0
      val share = (cumWeight(i) - prev) / cumWeight(n - 1) / (weight(i, k) * unit)
      prev = cumWeight(i)
      def add(slot: Int): Unit = {
        val dst = dstArr(slot)
        p(dst) = p.getOrElse(dst, 0.0) + share * (if (k == DecimalGroup) decArr(slot) * unit else mask.toDouble)
      }
      val c = counts(i)
      var j = 0
      if (c < 0) add(~c)
      else if (reprs(2 * i) == null) while (j < d) { if ((biasIntArr(j) & mask) != 0L) add(j); j += 1 }
      else while (j < c) { add(listAt(i)(j)); j += 1 }
      i += 1
      rest &= rest - 1
    }
    p.toMap
  }

  def groupTypeOf(k: Int): Option[GroupType] = if (isActive(k)) Some(typeAt(indexOf(k))) else None
  def groupCountOf(k: Int): Int = if (isActive(k)) countAt(indexOf(k)) else 0
  /** Ids of the non-empty groups: radix bits, then [[BingoVertex.DecimalGroup]]. */
  def activeGroupBits: Seq[Int] = (0 to DecimalGroup).filter(isActive)

  /** Retained bytes of the vertex: the object, its adjacency slots, bias
    * columns, group columns with the lists and inverted indexes, and the
    * group weights' prefix sums.
    */
  def memoryBytes: Long = {
    // 9 references, d and the slot store's repeats, active / decSum / decMax, adaptive
    var m = Heap.obj(9 * Heap.Ref + 2 * 4 + 3 * 8 + 1) + slotBytes + Heap.array(biasIntArr.length, 8)
    if (decArr != null) m += Heap.array(decArr.length, 8)
    if (counts != null) m += Heap.array(counts.length, 4) + Heap.array(reprs.length, Heap.Ref)
    if (cumWeight != null) m += Heap.array(cumWeight.length, 8)
    var i = 0
    while (i < java.lang.Long.bitCount(active)) {
      if (reprs(2 * i) != null) m += Heap.array(listAt(i).length, 4)
      m += (reprs(2 * i + 1) match {
        case inv: Array[Char] => Heap.array(inv.length, 2)
        case inv: Array[Int] => Heap.array(inv.length, 4)
        case map: IntIntMap => map.memoryBytes
        case _ => 0L
      })
      i += 1
    }
    m
  }

  /** Fail-fast structural invariant check (read by the core specs and MemoryModelSpec). */
  def validate(): Unit = {
    // group counts and memberships, over all 64 ids
    var k = 0
    while (k <= DecimalGroup) {
      val mask = 1L << k
      var expect = 0
      var i = 0
      while (i < d) { if ((biasIntArr(i) & mask) != 0L) expect += 1; i += 1 }
      val got = groupCountOf(k)
      require(got == expect && (!isActive(k) || got > 0), s"group $k count $got != expected $expect")
      val g = indexOf(k)
      if (isActive(k) && counts(g) < 0) require(~counts(g) < d && (biasIntArr(~counts(g)) & mask) != 0L, s"one-element group $k names slot ${~counts(g)}")
      else if (isActive(k) && reprs(2 * g) != null) { // a Dense group stores no slots
        reprs(2 * g + 1) match {
          case inv: Array[Char] => require(inv.length == capacity && capacity <= MaxCharInverse, s"group $k: a 16-bit inverse at $capacity slots")
          case inv: Array[Int] => require(inv.length == capacity && capacity > MaxCharInverse, s"group $k: a 32-bit inverse at $capacity slots")
          case inv => require(inv.isInstanceOf[IntIntMap], s"group $k: a list without an inverse")
        }
        var j = 0
        while (j < got) {
          val slot = listAt(g)(j)
          require(slot < d && (biasIntArr(slot) & mask) != 0L, s"group $k member $slot lacks bit")
          require(posOf(g, slot) == j, s"group $k inverted index wrong for slot $slot")
          j += 1
        }
      }
      k += 1
    }
    // the group columns hold exactly the active groups
    val n = java.lang.Long.bitCount(active)
    if (n == 0) require(counts == null && reprs == null && cumWeight == null, "group columns without a group")
    else require(counts.length == n && reprs.length == 2 * n && cumWeight.length == n, s"group columns not sized for $n groups")
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

  /** Tally a touch of group `i` in the batch's `touches`, by its type. */
  private def touch(i: Int, touches: Array[Long]): Unit = if (conversions != null) touches(typeAt(i).id) += 1

  /** Group `i`'s adaptive type, read off its representation. */
  private def typeAt(i: Int): GroupType =
    if (counts(i) < 0) GroupType.OneElement
    else reprs(2 * i + 1) match {
      case null => if (reprs(2 * i) eq GrownOne) GroupType.OneElement else GroupType.Dense
      case _: IntIntMap => GroupType.Sparse
      case _ => GroupType.Regular
    }

  /** Group `i`'s member count. */
  private def countAt(i: Int): Int = if (counts(i) < 0) 1 else counts(i)

  /** Group `i`'s member list (Regular and Sparse groups). */
  private def listAt(i: Int): Array[Int] = reprs(2 * i).asInstanceOf[Array[Int]]

  private def posOf(i: Int, slot: Int): Int = reprs(2 * i + 1) match {
    case inv: Array[Char] => inv(slot)
    case inv: Array[Int] => inv(slot)
    case map: IntIntMap => map.get(slot)
  }

  /** Point group `i`'s inverse at list position `pos` for `slot`; -1 clears it. */
  private def setPos(i: Int, slot: Int, pos: Int): Unit = reprs(2 * i + 1) match {
    case inv: Array[Char] => inv(slot) = pos.toChar
    case inv: Array[Int] => inv(slot) = pos
    case map: IntIntMap => if (pos < 0) map.remove(slot) else map.put(slot, pos)
  }

  /** Append a slot for (dst, bias): the integer part is exact below 2^63. */
  private def appendNeighbor(dst: Int, bias: Double): Int = {
    if (!(bias > 0.0 && bias < TwoPow63)) throw new IllegalArgumentException(s"requirement failed: bias must be positive and below 2^63: $bias")
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
    var i = 0
    while (i < java.lang.Long.bitCount(active)) { // the Regular inverses, widened past MaxCharInverse slots
      reprs(2 * i + 1) = reprs(2 * i + 1) match {
        case inv: Array[Char] if cap > MaxCharInverse =>
          val wide = new Array[Int](cap)
          var j = 0
          while (j < inv.length) { wide(j) = inv(j); j += 1 }
          wide
        case inv: Array[Char] => java.util.Arrays.copyOf(inv, cap)
        case inv: Array[Int] => java.util.Arrays.copyOf(inv, cap)
        case other => other
      }
      i += 1
    }
  }

  private def isActive(k: Int): Boolean = (active >>> k & 1L) != 0L
  /** Index of active group `k` in the group columns. */
  private def indexOf(k: Int): Int = java.lang.Long.bitCount(active & ((1L << k) - 1))

  /** Group `k`'s birth with its first member `slot`: the group columns
    * take one entry more, in id order. O(K).
    */
  private def addGroup(k: Int, slot: Int): Unit = {
    val n = java.lang.Long.bitCount(active)
    val i = indexOf(k)
    counts = resized(counts, new Array[Int](n + 1), i, i + 1, n - i)
    reprs = resized(reprs, new Array[AnyRef](2 * n + 2), 2 * i, 2 * i + 2, 2 * (n - i))
    active |= 1L << k
    if (adaptive) counts(i) = ~slot // One-element (Eq. 9 at a count of 1)
    else setMembers(i, GroupType.Regular, Array(slot))
  }

  /** Group `k`'s death: the group columns lose its entry. O(K). */
  private def removeGroup(k: Int): Unit = {
    val n = java.lang.Long.bitCount(active)
    val i = indexOf(k)
    active &= ~(1L << k)
    if (n == 1) { counts = null; reprs = null }
    else {
      counts = resized(counts, new Array[Int](n - 1), i + 1, i, n - i - 1)
      reprs = resized(reprs, new Array[AnyRef](2 * n - 2), 2 * i + 2, 2 * i, 2 * (n - i - 1))
    }
  }

  /** `to` filled from the group column `from` (null: no entries yet): the
    * entries below `min(at, moved)` in place, then `len` entries from `at`
    * on, placed from `moved` on.
    */
  private def resized[A <: AnyRef](from: A, to: A, at: Int, moved: Int, len: Int): A = {
    if (from != null) {
      System.arraycopy(from, 0, to, 0, math.min(at, moved))
      System.arraycopy(from, at, to, moved, len)
    }
    to
  }

  /** Insert `slot` into group `k`; conversions wait for the rebuild phase. */
  private def groupInsert(k: Int, slot: Int, touches: Array[Long]): Unit =
    if (!isActive(k)) addGroup(k, slot)
    else {
      val i = indexOf(k)
      touch(i, touches)
      val c = counts(i)
      if (c < 0) { counts(i) = 2; reprs(2 * i) = GrownOne } // rebuilt in the rebuild phase
      else {
        if (reprs(2 * i + 1) != null) { // Regular / Sparse: `slot` goes to list position `count`
          if (c == listAt(i).length) reprs(2 * i) = java.util.Arrays.copyOf(listAt(i), c * 2)
          listAt(i)(c) = slot
          setPos(i, slot, c)
        } // Dense and a grown One-element group keep nothing
        counts(i) = c + 1
      }
    }

  /** Re-point the group references of a slot that moved oldSlot →
    * newSlot, then move its bias columns.
    */
  protected def moveSlot(oldSlot: Int, newSlot: Int): Unit = {
    var rest = biasIntArr(oldSlot)
    while (rest != 0) {
      val i = indexOf(java.lang.Long.numberOfTrailingZeros(rest))
      if (counts(i) < 0) counts(i) = ~newSlot // One-element
      else if (reprs(2 * i + 1) != null) {
        val pos = posOf(i, oldSlot)
        listAt(i)(pos) = newSlot
        setPos(i, oldSlot, -1)
        setPos(i, newSlot, pos)
      } // a Dense group stores no slots
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
  private def deleteSlots(freed: Array[Int], n: Int, s: Scratch): Long = {
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
        val g = indexOf(k)
        touch(g, s.touches)
        if (counts(g) < 0) removeGroup(k) // One-element
        else if (reprs(2 * g + 1) != null) listBits |= 1L << k
        else { // Dense, or One-element grown in this batch: only the count changes
          counts(g) -= 1
          if (counts(g) == 0) removeGroup(k)
        }
        rest &= rest - 1
      }
      i += 1
    }
    val doomed = s.doomed
    var rest = listBits
    while (rest != 0) {
      val k = java.lang.Long.numberOfTrailingZeros(rest)
      val g = indexOf(k)
      val mask = 1L << k
      var m = 0
      i = 0
      while (i < n) {
        val slot = freed(i)
        if ((biasIntArr(slot) & mask) != 0L) { doomed(m) = posOf(g, slot); setPos(g, slot, -1); m += 1 }
        i += 1
      }
      s.point(this, g)
      counts(g) = SlotStore.twoPhaseCompact(doomed, m, counts(g))(s)
      s.point(null, 0)
      if (counts(g) == 0) removeGroup(k)
      rest &= rest - 1
    }
    compactSlots(freed, n)
    if ((active & DecimalBit) == 0L) { decSum = 0.0; decMax = 0.0 } // no rounding drift once empty
    else if (maxGone) decMax = java.util.Arrays.stream(decArr, 0, d).max().getAsDouble
    touched
  }

  /** Group `i`'s member at list position `from` moves to position `to`. */
  private def moveMember(i: Int, from: Int, to: Int): Unit = {
    val list = listAt(i)
    list(to) = list(from)
    setPos(i, list(to), to)
  }

  /** Apply Eq. 9 to touched group `k`; on a type change rebuild its
    * representation (recorded as a conversion, paper Table 4). A One-element
    * group that grew in the batch is rebuilt whatever its count: it names no
    * slot.
    */
  private def reclassify(k: Int): Unit = {
    if (!isActive(k)) return
    val i = indexOf(k)
    val from = typeAt(i)
    val to = GroupType.classify(countAt(i), d, adaptive)
    if (to != from || (reprs(2 * i) eq GrownOne)) {
      if (to != from && conversions != null) conversions.recordConversion(from, to)
      setMembers(i, to, scanMembers(k, countAt(i)))
    }
  }

  /** Set group `i`'s representation of type `t` over `members`, its slots:
    * Regular and Sparse keep the array as their list.
    */
  private def setMembers(i: Int, t: GroupType, members: Array[Int]): Unit = {
    counts(i) = if (t == GroupType.OneElement) ~members(0) else members.length
    reprs(2 * i) = if (t == GroupType.Regular || t == GroupType.Sparse) members else null
    reprs(2 * i + 1) =
      if (t == GroupType.Regular) regularInverse(members, capacity)
      else if (t == GroupType.Sparse) sparseInverse(members)
      else null
  }

  /** Weight of group `k`, the `i`-th active group: |G_k|·2^k for a radix
    * group (Eq. 4), the sum of the decimals for the decimal group (§4.3).
    */
  private def weight(i: Int, k: Int): Double =
    if (k == DecimalGroup) decSum else countAt(i).toDouble * (1L << k).toDouble

  /** Refill the prefix sums of the active groups' weights (Eq. 5), in
    * place unless the number of groups changed.
    */
  private def rebuildCumWeight(): Unit = {
    val n = java.lang.Long.bitCount(active)
    if (cumWeight == null || cumWeight.length != n) cumWeight = if (n == 0) null else new Array[Double](n)
    var sum = 0.0
    var rest = active
    var i = 0
    while (rest != 0) {
      sum += weight(i, java.lang.Long.numberOfTrailingZeros(rest))
      cumWeight(i) = sum
      i += 1
      rest &= rest - 1
    }
  }

  /** The `count` slots whose bias word has bit `k` set, in slot order: the scan
    * behind a group's representation rebuild, and the new member list.
    */
  private def scanMembers(k: Int, count: Int): Array[Int] = {
    val mask = 1L << k
    val out = new Array[Int](count)
    var n = 0
    var i = 0
    while (i < d) {
      if ((biasIntArr(i) & mask) != 0L) { if (n < count) out(n) = i; n += 1 }
      i += 1
    }
    if (n != count) throw new IllegalStateException(s"group $k rebuild: scan $n != count $count")
    out
  }
}

object BingoVertex {
  private val InitialCap = 4

  /** Scratch space of [[BingoVertex.applyBatch]], one per thread and
    * fetched once per batch, so that no vertex holds a field for it and a
    * batch allocates only for structural change: the freed slots, one
    * group's doomed list positions, the batch's touches tallied by
    * [[GroupType.id]] (added to [[ConversionStats]] once per batch), and,
    * as a function, the move of the member-list compaction of the group it
    * is pointed at.
    */
  private final class Scratch extends ((Int, Int) => Unit) {
    var freed = new Array[Int](16)
    var doomed = new Array[Int](16)
    val touches = new Array[Long](GroupType.All.length)
    private var vertex: BingoVertex = null
    private var group = 0

    /** Room for `n` freed slots and doomed positions. */
    def reserve(n: Int): Unit = if (freed.length < n) {
      freed = new Array[Int](math.max(n, 2 * freed.length))
      doomed = new Array[Int](freed.length)
    }

    def point(v: BingoVertex, i: Int): Unit = { vertex = v; group = i }
    def apply(from: Int, to: Int): Unit = vertex.moveMember(group, from, to)
  }

  private val scratch = ThreadLocal.withInitial[Scratch](() => new Scratch)

  /** Most slots a vertex holds while its Regular inverses keep 16-bit list
    * positions: a position is below the count, which is at most the capacity.
    */
  private val MaxCharInverse: Int = 1 << 16

  /** A Regular group's inverse of `members` for `cap` slots: each member's
    * list position, 16-bit up to [[MaxCharInverse]] slots.
    */
  private def regularInverse(members: Array[Int], cap: Int): AnyRef = {
    var j = 0
    if (cap <= MaxCharInverse) {
      val inv = new Array[Char](cap)
      while (j < members.length) { inv(members(j)) = j.toChar; j += 1 }
      inv
    } else {
      val inv = new Array[Int](cap)
      while (j < members.length) { inv(members(j)) = j; j += 1 }
      inv
    }
  }

  /** A Sparse group's inverse of `members`: each member's list position. */
  private def sparseInverse(members: Array[Int]): IntIntMap = {
    val inv = new IntIntMap(members.length)
    var j = 0
    while (j < members.length) { inv.put(members(j), j); j += 1 }
    inv
  }

  /** The list of a One-element group that gained members in the current
    * batch: it stays typed One-element until the rebuild phase.
    */
  private val GrownOne: Array[Int] = new Array[Int](0)

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
}
