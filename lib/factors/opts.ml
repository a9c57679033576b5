type t = {
  cache_factors_in_shared : bool;
  specialize_all_equal : bool;
  specialize_zero_one : bool;
  compress_repeating : bool;
  flush_denormals : bool;
  shared_cache_budget : int;
}

let all_on =
  {
    cache_factors_in_shared = true;
    specialize_all_equal = true;
    specialize_zero_one = true;
    compress_repeating = true;
    flush_denormals = true;
    shared_cache_budget = 1024;
  }

let all_off =
  {
    cache_factors_in_shared = false;
    specialize_all_equal = false;
    specialize_zero_one = false;
    compress_repeating = false;
    flush_denormals = false;
    shared_cache_budget = 1024;
  }

let with_cache_budget t budget = { t with shared_cache_budget = max 0 budget }

let pp fmt t =
  let flag name v = if v then Some name else None in
  let on =
    List.filter_map Fun.id
      [ (* The budget only matters while the cache is enabled, so it rides
           along with the shared-cache flag. *)
        flag
          (Printf.sprintf "shared-cache=%d" t.shared_cache_budget)
          t.cache_factors_in_shared;
        flag "all-equal" t.specialize_all_equal;
        flag "zero-one" t.specialize_zero_one;
        flag "repeat" t.compress_repeating;
        flag "ftz" t.flush_denormals ]
  in
  match on with
  | [] -> Format.pp_print_string fmt "none"
  | _ -> Format.pp_print_string fmt (String.concat "," on)
