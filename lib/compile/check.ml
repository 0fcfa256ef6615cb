module Product = Core.Product
open Table

(* The visited store spans all [n1 * n2] pairs; beyond this many the
   interpreted hashtable exploration is the better representation, so
   the compiled path declines. *)
let pair_limit = 1 lsl 21

let translation (t1 : Table.t) (t2 : Table.t) =
  Array.map
    (fun a ->
      match Hashtbl.find_opt t2.index a with Some i -> i | None -> -1)
    t1.alphabet

let complementary k1 k2 =
  match (k1, k2) with Kin, Kout | Kout, Kin -> true | _ -> false

type pair = {
  t1 : Table.t;
  t2 : Table.t;
  tr12 : int array;  (* client symbol -> server symbol, [-1] if none *)
  tr21 : int array;
}

(* The exploration kernel on table pairs: state [i * n2 + j] is the
   pair of client state [i] and server state [j]; a synchronisation is
   tagged with the client's symbol. *)
module Pairs = Core.Explore.Make (struct
  type ctx = pair
  type state = int
  type label = int
  type reason = Product.stuck_reason

  (* A sparse set: [slot] keeps each reached pair's discovery number
     in 4 bytes, [pairs] lists the reached pairs by number. [slot] is
     left uninitialised, and a slot counts only when [pairs] points
     back at it, so no pass pays to initialise the pairs it never
     reaches — most of [n1 * n2] on narrow contracts. *)
  type index = { slot : Bytes.t; mutable pairs : int array; mutable reached : int }

  let index c =
    {
      slot = Bytes.create (4 * c.t1.states * c.t2.states);
      pairs = Array.make 16 0;
      reached = 0;
    }

  let find ix p =
    let k = Int32.to_int (Bytes.get_int32_le ix.slot (4 * p)) in
    if k >= 0 && k < ix.reached && ix.pairs.(k) = p then k else -1

  (* the kernel numbers pairs 0, 1, 2, ... *)
  let add ix p k =
    Bytes.set_int32_le ix.slot (4 * p) (Int32.of_int k);
    if k = Array.length ix.pairs then begin
      let pairs = Array.make (2 * k) 0 in
      Array.blit ix.pairs 0 pairs 0 k;
      ix.pairs <- pairs
    end;
    ix.pairs.(k) <- p;
    ix.reached <- k + 1
  let root _ = 0
  let client_terminated c p = c.t1.kind.(p / c.t2.states) = Knil

  (* [Product.final_reason] on tables, preserving its probe order:
     first client output (row order) missing from the server's inputs,
     then first server output missing from the client's. *)
  let final_reason { t1; t2; tr12; tr21 } p =
    let i = p / t2.states and j = p mod t2.states in
    if t1.kind.(i) = Knil then None
    else
      let out1 = if t1.kind.(i) = Kout then t1.row_syms.(i) else [||] in
      let out2 = if t2.kind.(j) = Kout then t2.row_syms.(j) else [||] in
      if Array.length out1 = 0 && Array.length out2 = 0 then
        Some Product.Client_waits_forever
      else
        let in2 sym = t2.kind.(j) = Kin && Table.step t2 j tr12.(sym) <> -1 in
        let in1 sym = t1.kind.(i) = Kin && Table.step t1 i tr21.(sym) <> -1 in
        let first_missing row inx alpha =
          Array.find_opt (fun sym -> not (inx sym)) row
          |> Option.map (fun sym -> alpha.(sym))
        in
        let unmatched =
          match first_missing out1 in2 t1.alphabet with
          | Some a -> Some a
          | None -> first_missing out2 in1 t2.alphabet
        in
        Option.map (fun a -> Product.Unmatched_output a) unmatched

  (* [Compliance.sync_successors] order: the client row drives and the
     deterministic server answers at most once per channel. *)
  let iter_successors { t1; t2; tr12; _ } p k =
    let n2 = t2.states in
    let i = p / n2 and j = p mod n2 in
    if complementary t1.kind.(i) t2.kind.(j) then
      Array.iteri
        (fun idx sym ->
          let j' = Table.step t2 j tr12.(sym) in
          if j' <> -1 then k sym ((t1.row_tgts.(i).(idx) * n2) + j'))
        t1.row_syms.(i)
end)

let pair t1 t2 =
  if t1.states * t2.states > pair_limit then None
  else Some { t1; t2; tr12 = translation t1 t2; tr21 = translation t2 t1 }

(* Replay a synchronisation path on the hash-consed contracts to
   recover the stuck pair for diagnostics (tables carry no contract
   back-map; the path is as short as the BFS is wide). *)
let replay_path c1 c2 syms =
  List.fold_left
    (fun pair name ->
      match pair with
      | None -> None
      | Some (x, y) ->
          List.find_map
            (fun (nm, pq) -> if String.equal nm name then Some pq else None)
            (Core.Compliance.sync_successors x y))
    (Some (c1, c2)) syms

let survey t1 t2 ~c1 ~c2 =
  Option.map
    (fun ctx ->
      let s = Pairs.survey ctx in
      let counterexample { Pairs.path; reason; _ } =
        let syms = List.map (fun sym -> t1.alphabet.(sym)) path in
        match replay_path c1 c2 syms with
        | Some stuck -> Some { Product.synchronisations = syms; stuck; reason }
        | None ->
            (* can't happen for tables lowered from [c1]/[c2]; the
               interpreted search returns the same counterexample *)
            Product.counterexample c1 c2
      in
      {
        Product.stuck_states = s.Pairs.stuck_states;
        successful = s.Pairs.successful;
        first_counterexample = Option.bind s.Pairs.first_stuck counterexample;
      })
    (pair t1 t2)

let product_compliant t1 t2 =
  Option.map (fun ctx -> Pairs.first_stuck ctx = None) (pair t1 t2)
