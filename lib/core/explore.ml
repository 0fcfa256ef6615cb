module type STEP = sig
  type ctx
  type state
  type label
  type reason
  type index

  val index : ctx -> index
  val find : index -> state -> int
  val add : index -> state -> int -> unit
  val root : ctx -> state
  val final_reason : ctx -> state -> reason option
  val client_terminated : ctx -> state -> bool
  val iter_successors : ctx -> state -> (label -> state -> unit) -> unit
end

(* Growable arrays; the first pushed value fills the spare slots. *)
module Vec = struct
  type 'a t = { mutable data : 'a array; mutable len : int }

  let create () = { data = [||]; len = 0 }

  let push v x =
    if v.len = Array.length v.data then begin
      let data = Array.make (max 16 (2 * v.len)) x in
      Array.blit v.data 0 data 0 v.len;
      v.data <- data
    end;
    v.data.(v.len) <- x;
    v.len <- v.len + 1

  let get v i = v.data.(i)
end

module Make (S : STEP) = struct
  type stuck = { path : S.label list; state : S.state; reason : S.reason }

  type survey = {
    stuck_states : int;
    successful : bool;
    first_stuck : stuck option;
  }

  (* Iterative three-colour depth-first walk from the root (0 white,
     1 grey = on the current path, 2 black = done); an edge to a grey
     state closes a cycle. *)
  let has_cycle n succ first_succ =
    let colour = Bytes.make n '\000' in
    let cursor = Array.init n (Vec.get first_succ) in
    let stack = Array.make n 0 and depth = ref 1 in
    Bytes.set colour 0 '\001';
    let found = ref false in
    while (not !found) && !depth > 0 do
      let v = stack.(!depth - 1) in
      let c = cursor.(v) in
      if c = Vec.get first_succ (v + 1) then begin
        Bytes.set colour v '\002';
        decr depth
      end
      else begin
        cursor.(v) <- c + 1;
        let w = Vec.get succ c in
        match Bytes.get colour w with
        | '\000' ->
            Bytes.set colour w '\001';
            stack.(!depth) <- w;
            incr depth
        | '\001' -> found := true
        | _ -> ()
      end
    done;
    !found

  (* Breadth-first, with states numbered in discovery order, hence also
     in expansion order. Entry [k - 1] of [parent] and [via] describes
     state [k] (the root has none). The full pass also records the
     successors of state [k] as
     [succ.(first_succ.(k)) .. succ.(first_succ.(k + 1) - 1)],
     duplicates included, for the cycle walk; stuck states have none.
     With [~stop] the pass ends at the first stuck state and
     [successful] is meaningless. States wait in a [Queue], not in a
     growable array: an array that outgrows the minor heap would keep
     every young state it holds alive into the major heap. *)
  let explore ~stop ctx =
    let index = S.index ctx in
    let queue = Queue.create () and reached = ref 1 in
    let parent = Vec.create () and via = Vec.create () in
    let succ = Vec.create () and first_succ = Vec.create () in
    let root = S.root ctx in
    S.add index root 0;
    Queue.add root queue;
    let rec path k acc =
      if k = 0 then acc
      else path (Vec.get parent (k - 1)) (Vec.get via (k - 1) :: acc)
    in
    let stuck = ref 0 and first = ref None and terminated = ref false in
    let next = ref 0 in
    while (not (Queue.is_empty queue)) && not (stop && Option.is_some !first) do
      let k = !next in
      incr next;
      let p = Queue.pop queue in
      if not stop then Vec.push first_succ succ.Vec.len;
      match S.final_reason ctx p with
      | Some reason ->
          incr stuck;
          if Option.is_none !first then
            first := Some { path = path k []; state = p; reason }
      | None ->
          if S.client_terminated ctx p then terminated := true;
          S.iter_successors ctx p (fun a q ->
              let j = S.find index q in
              let j =
                if j >= 0 then j
                else begin
                  let j = !reached in
                  incr reached;
                  S.add index q j;
                  Queue.add q queue;
                  Vec.push parent k;
                  Vec.push via a;
                  j
                end
              in
              if not stop then Vec.push succ j)
    done;
    if not stop then Vec.push first_succ succ.Vec.len;
    {
      stuck_states = !stuck;
      successful =
        !terminated || ((not stop) && has_cycle !reached succ first_succ);
      first_stuck = !first;
    }

  let survey ctx = explore ~stop:false ctx
  let first_stuck ctx = (explore ~stop:true ctx).first_stuck
end
