module Nat = Dstress_bignum.Nat

(* SHA-256 in counter mode: block_i = H(key ‖ le64 i). [block] holds the
   current 32-byte output block and [pos] how much of it is consumed, so
   bit/byte requests of any size are served without waste. A refill
   hashes [key ‖ ctr] straight into [block] through the generator's own
   SHA-256 scratch, so drawing allocates nothing. *)
type t = {
  key : bytes;
  mutable counter : int;
  ctr : bytes; (* le64 encoding of the counter, rewritten per refill *)
  block : bytes;
  mutable pos : int;
  sha : Sha256.scratch;
}

let block_size = 32

let create seed =
  {
    key = Bytes.copy seed;
    counter = 0;
    ctr = Bytes.create 8;
    block = Bytes.create block_size;
    pos = block_size;
    sha = Sha256.scratch ();
  }

let of_string s = create (Bytes.of_string s)

let of_prng prng = create (Dstress_util.Prng.bytes prng 32)

(* The key is never written after [create], so it is shared; everything a
   refill writes ([ctr], [block], the scratch) is the copy's own. *)
let copy t =
  {
    t with
    ctr = Bytes.create 8;
    block = Bytes.copy t.block;
    sha = Sha256.scratch ();
  }

let refill t =
  Bytes.set_int64_le t.ctr 0 (Int64.of_int t.counter);
  t.counter <- t.counter + 1;
  Sha256.digest2_into t.sha t.key t.ctr t.block 0;
  t.pos <- 0

let next_byte t =
  if t.pos = block_size then refill t;
  let b = Bytes.get t.block t.pos in
  t.pos <- t.pos + 1;
  Char.code b

(* Bulk draw: blit whole buffered blocks instead of going byte by byte.
   The output stream is identical to repeated [next_byte]. *)
let bytes_into t dst off n =
  if n < 0 || off < 0 || off > Bytes.length dst - n then invalid_arg "Prg.bytes_into";
  let filled = ref 0 in
  while !filled < n do
    if t.pos = block_size then refill t;
    let take = min (n - !filled) (block_size - t.pos) in
    Bytes.blit t.block t.pos dst (off + !filled) take;
    t.pos <- t.pos + take;
    filled := !filled + take
  done

let bytes t n =
  let out = Bytes.create n in
  bytes_into t out 0 n;
  out

let bits t n =
  let nbytes = (n + 7) / 8 in
  let raw = bytes t nbytes in
  Dstress_util.Bitvec.init n (fun i ->
      (Char.code (Bytes.get raw (i / 8)) lsr (i mod 8)) land 1 = 1)

let bool t = next_byte t land 1 = 1

let seed64 s =
  let d = Sha256.digest (Bytes.of_string s) in
  let acc = ref 0L in
  for i = 0 to 7 do
    acc := Int64.logor !acc (Int64.shift_left (Int64.of_int (Char.code (Bytes.get d i))) (8 * i))
  done;
  !acc

let nat_below t bound =
  if Nat.is_zero bound then invalid_arg "Prg.nat_below: zero bound";
  let nbits = Nat.num_bits bound in
  let nbytes = (nbits + 7) / 8 in
  let excess = (8 * nbytes) - nbits in
  let rec loop () =
    let raw = bytes t nbytes in
    (* Mask the high byte down to the bound's bit-width before the
       rejection test, so acceptance probability is >= 1/2. *)
    if excess > 0 then begin
      let hi = Char.code (Bytes.get raw 0) in
      Bytes.set raw 0 (Char.chr (hi land (0xff lsr excess)))
    end;
    let v = Nat.of_bytes_be raw in
    if Nat.compare v bound < 0 then v else loop ()
  in
  loop ()
