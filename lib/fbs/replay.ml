(* Replay protection (paper, Sections 5.3 and 6.2).

   FBS uses a window-based timestamp scheme: the timestamp is the number of
   minutes since a fixed epoch, and the receiver accepts a datagram iff its
   timestamp falls inside a sliding window centered on the current time.
   No hard state is required; the trade-off is that a replay *within* the
   window succeeds — the paper accepts this and leaves exact replay
   protection to higher layers.

   As a documented extension beyond the paper (Section 6.2 "ultimately,
   complete replay protection can only be achieved in high-layer
   protocols"), [strict] mode additionally remembers the (sfl, peer,
   confounder, timestamp) of every datagram accepted inside the window
   and rejects exact duplicates.  The peer is part of the key because an
   sfl is unique only per sender: two senders may pick the same sfl and
   confounder, and neither datagram replays the other.  The memory is
   bounded: an entry's deadline is the minute its timestamp leaves the
   window, and the first probe of each new minute expires the entries
   past it, in deadline order.

   The check is split around MAC verification: [probe] refuses stale and
   already-seen datagrams before any crypto runs, and [commit] records a
   key only once its datagram verified.  A corrupted or forged copy
   that arrives first therefore cannot make the genuine one a
   "duplicate". *)

let minutes_of_seconds s = int_of_float (s /. 60.0) land 0xffffffff

type t = {
  window_minutes : int; (* accept |ts - now| <= window_minutes *)
  strict : bool;
  seen : (int64 * string * int * int, unit) Fbsr_util.Pending.t;
      (* (sfl, peer, confounder, ts), due at minute ts + window_minutes *)
  mutable last_gc : int;
  mutable accepted : int;
  mutable rejected_stale : int;
  mutable rejected_duplicate : int;
}

let create ?(window_minutes = 2) ?(strict = false) () =
  {
    window_minutes;
    strict;
    seen = Fbsr_util.Pending.create ();
    last_gc = 0;
    accepted = 0;
    rejected_stale = 0;
    rejected_duplicate = 0;
  }

type verdict = Fresh | Stale | Duplicate

(* An entry is committed only after a probe found its timestamp inside
   the window, and [gc] runs only at a minute later than every probe
   before it, so the timestamp can leave the window from below only: the
   entry is dead once [now_min - ts > window_minutes]. *)
let gc t now_min =
  if t.strict && now_min > t.last_gc then begin
    t.last_gc <- now_min;
    Fbsr_util.Pending.expire t.seen ~now:(float_of_int now_min)
  end

let seen_key ~sfl ~peer ~confounder ~timestamp =
  (Sfl.to_int64 sfl, Principal.to_string peer, confounder, timestamp)

(* The prologue half: runs before the MAC is checked, so it must not
   change what a later datagram sees — it counts its rejections and
   remembers nothing. *)
let probe t ~now ~sfl ~peer ~confounder ~timestamp : verdict =
  let now_min = minutes_of_seconds now in
  gc t now_min;
  if abs (now_min - timestamp) > t.window_minutes then begin
    t.rejected_stale <- t.rejected_stale + 1;
    Stale
  end
  else if
    t.strict && Fbsr_util.Pending.mem t.seen (seen_key ~sfl ~peer ~confounder ~timestamp)
  then begin
    t.rejected_duplicate <- t.rejected_duplicate + 1;
    Duplicate
  end
  else Fresh

(* The accept half: runs once the MAC verified, so only genuine datagrams
   enter [seen].  Membership is tested again because a copy may have
   committed since this one's probe (two copies parked in one batch). *)
let commit t ~sfl ~peer ~confounder ~timestamp =
  if not t.strict then begin
    t.accepted <- t.accepted + 1;
    true
  end
  else
    let key = seen_key ~sfl ~peer ~confounder ~timestamp in
    if Fbsr_util.Pending.mem t.seen key then begin
      t.rejected_duplicate <- t.rejected_duplicate + 1;
      false
    end
    else begin
      Fbsr_util.Pending.add t.seen key ()
        ~deadline:(float_of_int (timestamp + t.window_minutes));
      t.accepted <- t.accepted + 1;
      true
    end

type stats = { accepted : int; rejected_stale : int; rejected_duplicate : int }

let stats (t : t) =
  {
    accepted = t.accepted;
    rejected_stale = t.rejected_stale;
    rejected_duplicate = t.rejected_duplicate;
  }

(* Registry names relative to the caller's scope (e.g. "fbs.replay"). *)
let register_metrics (t : t) m =
  let open Fbsr_util.Metrics in
  register_probe m "accepted" (fun () -> t.accepted);
  register_probe m "rejected.stale" (fun () -> t.rejected_stale);
  register_probe m "rejected.duplicate" (fun () -> t.rejected_duplicate);
  register_probe m "window.entries" (fun () -> Fbsr_util.Pending.length t.seen)
