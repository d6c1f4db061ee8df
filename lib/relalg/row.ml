(* Rows are immutable value arrays; all operators allocate fresh arrays. *)

type t = Value.t array

let of_list = Array.of_list
let to_list = Array.to_list
let arity = Array.length
let get (t : t) i = t.(i)

let append (a : t) (b : t) : t = Array.append a b

let project (t : t) idxs : t = Array.of_list (List.map (fun i -> t.(i)) idxs)

(* Array-of-positions variant for hot paths: one array read per column,
   and nothing allocated per row but the output row. *)
let project_positions (t : t) (idxs : int array) : t =
  let n = Array.length idxs in
  if n = 0 then [||]
  else begin
    let out = Array.make n t.(idxs.(0)) in
    for i = 1 to n - 1 do
      out.(i) <- t.(idxs.(i))
    done;
    out
  end

let nulls n : t = Array.make n Value.Null

(* Lexicographic total order on the listed key positions (Value.compare,
   so NULLs group together — the grouping/sorting order, not SQL truth). *)
let compare_on idxs (a : t) (b : t) =
  let rec go = function
    | [] -> 0
    | i :: rest ->
        let c = Value.compare a.(i) b.(i) in
        if c <> 0 then c else go rest
  in
  go idxs

let compare (a : t) (b : t) =
  let n = Array.length a and m = Array.length b in
  let rec go i =
    if i >= n || i >= m then Int.compare n m
    else
      let c = Value.compare a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let equal a b = compare a b = 0

let hash (t : t) =
  Array.fold_left (fun acc v -> (acc * 31) + Value.hash v) 17 t

(* Hash table keyed by rows under *semantic* equality ([Value.compare]:
   Int/Float unify numerically, NULL equals itself) — the contract every
   hash operator must share with the sort-based operators, which group via
   [Value.compare].  OCaml's structural [Hashtbl] disagrees on mixed
   Int/Float keys, so hash operators must use this instead. *)
module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal

  let hash = hash
end)

let pp ppf (t : t) =
  Fmt.pf ppf "(%a)" Fmt.(array ~sep:(any ", ") Value.pp) t
