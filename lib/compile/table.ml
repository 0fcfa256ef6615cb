module Contract = Core.Contract

type kind = Knil | Kinert | Kin | Kout

type t = {
  states : int;
  alphabet : string array;
  index : (string, int) Hashtbl.t;
  kind : kind array;
  row_syms : int array array;
  row_tgts : int array array;
  delta : int array;
}

let nsyms t = Array.length t.alphabet

let step t s sym =
  if sym < 0 then -1 else t.delta.((s * Array.length t.alphabet) + sym)

(* ---- escaping ---------------------------------------------------------

   Channel names come from identifiers, but the encoding must be
   injective: any byte outside [A-Za-z0-9_.] is %XX-escaped, so names
   can never collide with the encoding's own separators. *)

let plain c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '.'

let esc s =
  if String.for_all plain s then s
  else begin
    let b = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        if plain c then Buffer.add_char b c
        else Buffer.add_string b (Printf.sprintf "%%%02X" (Char.code c)))
      s;
    Buffer.contents b
  end

(* ---- lowering --------------------------------------------------------- *)

exception Unlowerable

let state_limit = 200_000

let kind_of c trans =
  if Contract.is_terminated c then Knil
  else
    match trans with
    | [] -> Kinert
    | (d, _, _) :: rest ->
        (* the contract LTS is direction-homogeneous per state (Ext
           states only input, Int states only output, Seq/Mu inherit);
           refuse to compile anything that isn't, rather than risk a
           wrong table *)
        if List.exists (fun (d', _, _) -> d' <> d) rest then
          raise Unlowerable
        else if d = Contract.I then Kin
        else Kout

let build ~alphabet ~kind ~row_syms ~row_tgts =
  let states = Array.length kind in
  let nsyms = Array.length alphabet in
  let index = Hashtbl.create (max 16 nsyms) in
  Array.iteri (fun i a -> Hashtbl.replace index a i) alphabet;
  let delta = Array.make (states * nsyms) (-1) in
  Array.iteri
    (fun s syms ->
      Array.iteri
        (fun i sym ->
          if delta.((s * nsyms) + sym) <> -1 then raise Unlowerable;
          delta.((s * nsyms) + sym) <- row_tgts.(s).(i))
        syms)
    row_syms;
  { states; alphabet; index; kind; row_syms; row_tgts; delta }

let lower_exn c0 =
  let idx = Hashtbl.create 64 in
  let rev_states = ref [] and n = ref 0 in
  let add c =
    if !n >= state_limit then raise Unlowerable;
    Hashtbl.add idx (Contract.id c) !n;
    rev_states := c :: !rev_states;
    incr n
  in
  add c0;
  let q = Queue.create () in
  Queue.add c0 q;
  let rev_rows = ref [] in
  while not (Queue.is_empty q) do
    let c = Queue.pop q in
    let trans = Contract.transitions c in
    List.iter
      (fun (_, _, k) ->
        if not (Hashtbl.mem idx (Contract.id k)) then begin
          add k;
          Queue.add k q
        end)
      trans;
    rev_rows := (c, trans) :: !rev_rows
  done;
  let rows = Array.of_list (List.rev !rev_rows) in
  let states = !n in
  let sym_idx = Hashtbl.create 32 in
  let rev_alpha = ref [] and nsyms = ref 0 in
  let sym a =
    match Hashtbl.find_opt sym_idx a with
    | Some i -> i
    | None ->
        let i = !nsyms in
        Hashtbl.add sym_idx a i;
        rev_alpha := a :: !rev_alpha;
        incr nsyms;
        i
  in
  let kind = Array.make states Knil in
  let row_syms = Array.make states [||] and row_tgts = Array.make states [||] in
  for s = 0 to states - 1 do
    let c, trans = rows.(s) in
    kind.(s) <- kind_of c trans;
    row_syms.(s) <- Array.of_list (List.map (fun (_, a, _) -> sym a) trans);
    row_tgts.(s) <-
      Array.of_list
        (List.map (fun (_, _, k) -> Hashtbl.find idx (Contract.id k)) trans)
  done;
  let alphabet = Array.of_list (List.rev !rev_alpha) in
  build ~alphabet ~kind ~row_syms ~row_tgts

let unsafe_build ~alphabet ~kind ~row_syms ~row_tgts =
  match build ~alphabet ~kind ~row_syms ~row_tgts with
  | t -> t
  | exception Unlowerable ->
      invalid_arg "Table.unsafe_build: duplicate row symbol"

let lower c0 =
  if Contract.free_vars c0 <> [] then None
  else
    match lower_exn c0 with
    | t ->
        Obs.Metrics.incr "compile.lowerings";
        Obs.Metrics.add "compile.lower.states" t.states;
        Some t
    | exception Unlowerable -> None

(* ---- canonical encoding -----------------------------------------------

   The key minimized tables are shared under. One line, no spaces:
   [STATES;ALPHA;KINDS;ROWS] with ALPHA the comma-separated escaped
   symbols ([-] when empty), KINDS one character per state (n/v/i/o)
   and ROWS the [|]-separated per-state [sym:tgt] comma lists, in row
   order. *)

let kind_char = function Knil -> 'n' | Kinert -> 'v' | Kin -> 'i' | Kout -> 'o'

let encode t =
  let b = Buffer.create 256 in
  Buffer.add_string b (string_of_int t.states);
  Buffer.add_char b ';';
  if Array.length t.alphabet = 0 then Buffer.add_char b '-'
  else
    Array.iteri
      (fun i a ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b (esc a))
      t.alphabet;
  Buffer.add_char b ';';
  Array.iter (fun k -> Buffer.add_char b (kind_char k)) t.kind;
  Buffer.add_char b ';';
  for s = 0 to t.states - 1 do
    if s > 0 then Buffer.add_char b '|';
    Array.iteri
      (fun i sym ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b (string_of_int sym);
        Buffer.add_char b ':';
        Buffer.add_string b (string_of_int t.row_tgts.(s).(i)))
      t.row_syms.(s)
  done;
  Buffer.contents b
