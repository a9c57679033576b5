type 'a t = { forward : 'a array; feedback : 'a array }

exception Invalid of string

let invalid fmt = Format.kasprintf (fun s -> raise (Invalid s)) fmt

let check_last_nonzero ~is_zero ~what coeffs =
  let n = Array.length coeffs in
  if n = 0 then invalid "%s part of a signature must not be empty" what
  else if is_zero coeffs.(n - 1) then
    invalid "last %s coefficient must be nonzero" what

let create ~is_zero ~forward ~feedback =
  check_last_nonzero ~is_zero ~what:"non-recursive (forward)" forward;
  check_last_nonzero ~is_zero ~what:"recursive (feedback)" feedback;
  { forward; feedback }

let create_fir ~is_zero ~forward =
  check_last_nonzero ~is_zero ~what:"non-recursive (forward)" forward;
  { forward; feedback = [||] }

let order t = Array.length t.feedback
let fir_taps t = Array.length t.forward

let is_pure_recurrence ~is_one ~is_zero:_ t =
  Array.length t.forward = 1 && is_one t.forward.(0)

let split ~one t =
  ({ forward = t.forward; feedback = [||] },
   { forward = [| one |]; feedback = t.feedback })

let map f t = { forward = Array.map f t.forward; feedback = Array.map f t.feedback }

let equal eq a b =
  Array.length a.forward = Array.length b.forward
  && Array.length a.feedback = Array.length b.feedback
  && Array.for_all2 eq a.forward b.forward
  && Array.for_all2 eq a.feedback b.feedback

let pp pp_coeff fmt t =
  let pp_list fmt coeffs =
    Array.iteri
      (fun i c ->
        if i > 0 then Format.fprintf fmt ", ";
        pp_coeff fmt c)
      coeffs
  in
  Format.fprintf fmt "(%a: %a)" pp_list t.forward pp_list t.feedback

(* [pp]'s text without [Format]: the serving layer renders a cache key
   per request. *)
let to_string coeff_to_string t =
  let list a =
    String.concat ", " (Array.to_list (Array.map coeff_to_string a))
  in
  "(" ^ list t.forward ^ ": " ^ list t.feedback ^ ")"
